"""tools/ab.py on canned output: statistics, the BENCH and SCALE file schemas
and the map digest check of scale runs.

No test here launches a run: subprocess.run is replaced by a function that
fails, or, to export a scratch repository, by one that runs git alone, or,
to see both exports compile first, by one that records compileall alone.
"""

import importlib.util
import json
import subprocess
from argparse import Namespace
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = {"wall_s": "lower", "peak_rss_mb": "lower", "miou_pct": "higher"}
ENV = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "noise_seed": 1}
_RUN = subprocess.run  # kept before the fixture below replaces it


@pytest.fixture(autouse=True)
def no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a test launched a process")

    monkeypatch.setattr(ab.subprocess, "run", refuse)


def canned_stdout(wall, rss=48.0, miou=98.78, correct=True, failed=0) -> str:
    metrics = {"wall_s": (wall, "s"), "cpu_s": (wall, "s"), "peak_rss_mb": (rss, "MB"),
               "miou_pct": (miou, "%"), "setup_s": (0.07, "s")}
    result = {"correct": correct, "attempted": 12, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return "\n".join(
        ["# perfbench glcm-noisy seed=1 trace=0", "env " + json.dumps(ENV)]
        + [f"{k} {v} {u}" for k, (v, u) in metrics.items()]
        + ["failed_frac 0.0 fraction", json.dumps(result)]
    ) + "\n"


def test_parse_run_reads_the_env_line_metrics_and_correct_flag():
    run = ab.parse_run(canned_stdout(0.0625))
    assert run == {
        "correct": True,
        "failed": 0,
        "attempted": 12,
        "env": ENV,
        "metrics": {"wall_s": 0.0625, "cpu_s": 0.0625, "peak_rss_mb": 48.0, "miou_pct": 98.78,
                    "setup_s": 0.07},
    }
    assert ab.parse_run(canned_stdout(0.06, correct=False))["correct"] is False
    assert ab.parse_run(canned_stdout(0.06, failed=1))["correct"] is False


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run_side(side):
        calls.append(side)
        return ab.parse_run(canned_stdout(0.05))

    runs = ab.alternate(3, run_side)
    assert calls == ["base", "change", "change", "base", "base", "change"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs] == [
        (0, "base", True), (0, "change", False),
        (1, "change", True), (1, "base", False),
        (2, "base", True), (2, "change", False),
    ]


def test_quartiles_interpolate_linearly():
    assert ab.quartiles([10, 20, 30, 40, 50]) == (20, 30, 40)
    assert ab.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def _runs(base_walls, change_walls, base_miou=98.0, change_miou=98.0):
    runs = []
    for pair, (b, c) in enumerate(zip(base_walls, change_walls)):
        runs.append({"pair": pair, "side": "base", "first": True,
                     **ab.parse_run(canned_stdout(b, miou=base_miou))})
        runs.append({"pair": pair, "side": "change", "first": False,
                     **ab.parse_run(canned_stdout(c, miou=change_miou))})
    return runs


def test_summary_counts_pairs_won_against_the_base_spread():
    base = [0.10, 0.20, 0.30, 0.40, 0.50]
    small = ab.summarize(_runs(base, [w - 0.01 for w in base]), BETTER)["wall_s"]
    assert small["base"] == pytest.approx({"q1": 0.2, "median": 0.3, "q3": 0.4})
    assert small["change"] == pytest.approx({"q1": 0.19, "median": 0.29, "q3": 0.39})
    assert small["pairs"] == small["pairs_won"] == 5
    assert small["base_quartile_spread"] == pytest.approx(0.2)
    assert small["change_pct"] == pytest.approx(-100 / 30)
    assert small["gain_clears_spread"] is False  # won every pair, by less than the spread
    large = ab.summarize(_runs(base, [w - 0.25 for w in base]), BETTER)["wall_s"]
    assert large["gain_clears_spread"] is True
    one_loss = ab.summarize(_runs(base, [0.05, 0.15, 0.25, 0.35, 0.55]), BETTER)["wall_s"]
    assert one_loss["pairs_won"] == 4 and one_loss["gain_clears_spread"] is False
    # Higher is better for mIoU; equal values win no pair.
    miou = ab.summarize(_runs(base, base, 98.0, 99.0), BETTER)["miou_pct"]
    assert miou["pairs_won"] == 5 and miou["better"] == "higher"
    assert ab.summarize(_runs(base, base), BETTER)["wall_s"]["pairs_won"] == 0


def test_bound_flags_judge_the_median_and_the_spread_against_the_bound():
    base = [0.100, 0.101, 0.102, 0.103, 0.104]  # median 0.102, spread 0.002 (2%)
    bounds = {"wall_s": 0.10, "miou_pct": 0.05}

    def flags(change, bounds=bounds, base=base, **miou):
        m = ab.summarize(_runs(base, change, **miou), BETTER, bounds)
        return {k: (m[k]["worse_than_bound"], m[k]["unresolved"]) for k in ("wall_s", "miou_pct")}

    # Within the bound either way; a 2% spread resolves a 10% bound.
    assert flags([w * 1.09 for w in base])["wall_s"] == (False, False)
    assert flags([w * 0.5 for w in base])["wall_s"] == (False, False)
    # Worse by more than 10% of the base median: 0.1123 against 0.102.
    assert flags([w * 1.11 for w in base])["wall_s"] == (True, False)
    # Higher is better for mIoU: 98 -> 92.9 is 5.2% worse; 98 -> 93.2 is not.
    assert flags(base, base_miou=98.0, change_miou=92.9)["miou_pct"] == (True, False)
    assert flags(base, base_miou=98.0, change_miou=93.2)["miou_pct"] == (False, False)
    # A base spread of 20% is unresolved against a 10% bound ...
    wide = [0.08, 0.09, 0.10, 0.11, 0.12]
    assert flags([0.10] * 5, base=wide)["wall_s"] == (False, True)
    assert flags([0.12, 0.13, 0.14, 0.15, 0.16], base=wide)["wall_s"] == (True, True)
    # ... unless every change run beat every base run.
    assert flags([0.07, 0.06, 0.05, 0.075, 0.065], base=wide)["wall_s"] == (False, False)
    # A metric without a bound gets no flags.
    m = ab.summarize(_runs(base, base), BETTER, {})["wall_s"]
    assert (m["bound"], m["worse_than_bound"], m["unresolved"]) == (None, None, None)


def test_bench_document_schema_and_correct_flag():
    args = Namespace(workload="glcm-noisy", seed=1, seconds=6.0, pairs=2)
    runs = _runs([0.06, 0.07], [0.05, 0.06])
    doc = ab.bench_document(args, "a" * 40, "b" * 40, runs, BETTER)
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == {"workload", "seed", "seconds", "pairs", "base", "change", "correct",
                        "metrics", "runs"}
    assert doc["base"] == {"rev": "a" * 40, "env": ENV}
    assert doc["change"] == {"rev": "b" * 40, "env": ENV}
    assert doc["correct"] is True
    assert set(doc["metrics"]) == set(BETTER)
    assert set(doc["metrics"]["wall_s"]) == {
        "better", "base", "change", "change_pct", "pairs", "pairs_won",
        "base_quartile_spread", "gain_clears_spread", "bound", "worse_than_bound", "unresolved",
    }
    assert doc["metrics"]["wall_s"]["bound"] is None  # no bound given
    bounded = ab.bench_document(args, "a" * 40, "b" * 40, runs, BETTER, {"wall_s": 0.25})
    assert bounded["metrics"]["wall_s"]["bound"] == 0.25
    assert bounded["metrics"]["wall_s"]["worse_than_bound"] is False
    assert [r["correct"] for r in doc["runs"]] == [True] * 4
    runs[3]["correct"] = False
    assert ab.bench_document(args, "a" * 40, "b" * 40, runs, BETTER)["correct"] is False
    assert ab.bench_document(args, "a" * 40, "b" * 40, [], BETTER)["correct"] is False


def canned_scale_stdout(digest="ab" * 32, total=5.0, peak=205.7, children=0.0, traced=True) -> str:
    stages = {"extract": 2.9, "assemble": 0.01, "balance": 0.001, "split": 0.12, "scale": 0.15,
              "train": 1.2, "map": 0.6, "predict": 0.001, "total": total}
    result = {"env": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}, "map_sha256": digest,
              "metrics": {**{k + "_s": v for k, v in stages.items()},
                          "peak_rss_mb": peak, "children_peak_rss_mb": children,
                          "minor_faults": 51234, "model_bytes": 2052010,
                          "save_pipeline_s": 0.011, "load_pipeline_s": 0.012}}
    if traced:  # --jobs 1 runs alone
        result["metrics"]["traced_peak_mb"] = 97.5
    return "some warning on stdout\n" + json.dumps(result) + "\n"


def _scale_runs(base_digests, change_digests):
    runs = []
    for pair, (b, c) in enumerate(zip(base_digests, change_digests)):
        for side, digest, peak in (("base", b, 285.7), ("change", c, 205.7 + pair)):
            runs.append({"pair": pair, "side": side, "first": side == "base",
                         **ab.parse_scale_run(canned_scale_stdout(digest, peak=peak))})
    return runs


def test_parse_scale_run_reads_stages_peaks_and_the_map_digest():
    run = ab.parse_scale_run(canned_scale_stdout(total=4.5, peak=210.0, children=160.5))
    assert run["correct"] is True and run["map_sha256"] == "ab" * 32
    assert run["env"] == {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
    assert run["metrics"]["total_s"] == 4.5 and run["metrics"]["map_s"] == 0.6
    assert run["metrics"]["peak_rss_mb"] == 210.0
    assert run["metrics"]["children_peak_rss_mb"] == 160.5
    assert run["metrics"]["model_bytes"] == 2052010
    assert run["metrics"]["minor_faults"] == 51234
    assert run["metrics"]["traced_peak_mb"] == 97.5
    assert "traced_peak_mb" not in ab.parse_scale_run(canned_scale_stdout(traced=False))["metrics"]
    assert ab.parse_scale_run("")["correct"] is False


def test_scale_runs_agree_only_on_one_map_digest_across_both_sides():
    same = "ab" * 32
    assert ab.digests_agree(_scale_runs([same] * 3, [same] * 3)) is True
    assert ab.digests_agree(_scale_runs([same] * 3, [same, "cd" * 32, same])) is False
    assert ab.digests_agree(_scale_runs([same, "cd" * 32], [same, same])) is False
    runs = _scale_runs([same] * 2, [same] * 2)
    runs[1]["correct"] = False
    assert ab.digests_agree(runs) is False
    assert ab.digests_agree([]) is False


def test_scale_document_summarizes_every_stage_and_peak():
    args = Namespace(scale=(512, 512), technique="glcm", jobs=1, seed=1, pairs=3)
    same = "ab" * 32
    doc = ab.scale_document(args, "a" * 40, "b" * 40, _scale_runs([same] * 3, [same] * 3))
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == {"scale", "technique", "jobs", "seed", "pairs", "base", "change",
                        "map_digests", "correct", "metrics", "runs"}
    assert doc["scale"] == 512
    assert doc["correct"] is True and doc["map_digests"] == {"base": [same], "change": [same]}
    assert set(doc["metrics"]) == {"extract_s", "assemble_s", "balance_s", "split_s", "scale_s",
                                   "train_s", "map_s", "predict_s", "total_s", "peak_rss_mb",
                                   "children_peak_rss_mb", "minor_faults", "traced_peak_mb",
                                   "model_bytes", "save_pipeline_s", "load_pipeline_s"}
    peak = doc["metrics"]["peak_rss_mb"]
    assert peak["better"] == "lower" and peak["pairs_won"] == 3
    assert peak["base"]["median"] == 285.7 and peak["change"]["median"] == 206.7
    assert doc["metrics"]["traced_peak_mb"]["better"] == "lower"
    assert doc["metrics"]["minor_faults"]["base"]["median"] == 51234
    other = ab.scale_document(args, "a" * 40, "b" * 40, _scale_runs([same] * 3, ["cd" * 32] * 3))
    assert other["correct"] is False
    assert other["map_digests"] == {"base": [same], "change": ["cd" * 32]}


@pytest.mark.parametrize(
    ("text", "shape", "name"),
    [("64", (64, 64), 64), ("512x510", (512, 510), "512x510"), ("126x128", (126, 128), "126x128"),
     ("128x128", (128, 128), 128)],
)
def test_scale_takes_a_side_or_height_x_width(text, shape, name):
    assert ab.parse_scale(text) == shape
    assert ab.scale_name(shape) == name


@pytest.mark.parametrize("text", ["", "0", "64x0", "x64", "64x", "64X64", "64x64x2", "-8", "8.0", " 8"])
def test_scale_rejects_what_is_not_a_side_or_height_x_width(text, capsys):
    with pytest.raises(ab.argparse.ArgumentTypeError, match="SIDE or HxW"):
        ab.parse_scale(text)
    with pytest.raises(SystemExit):
        ab.main(["--base", "HEAD", "--scale", text])
    assert "SIDE or HxW" in capsys.readouterr().err


@pytest.mark.parametrize("change_digest, status", [("ab" * 32, 0), ("cd" * 32, 1)])
def test_scale_mode_exits_one_when_the_maps_differ(tmp_path, monkeypatch, change_digest, status):
    calls = _scale_main(tmp_path, monkeypatch, change_digest, "64")
    assert calls[0] == status
    assert calls[1:] == [(False, (64, 64), "glcm", 2, 1), (True, (64, 64), "glcm", 2, 1),
                         (True, (64, 64), "glcm", 2, 1), (False, (64, 64), "glcm", 2, 1)]
    doc = json.loads((tmp_path / "bench" / "SCALE_glcm-64-jobs2.json").read_text())
    assert doc["correct"] is (status == 0) and len(doc["runs"]) == 4


def test_scale_mode_names_a_non_square_scene_height_x_width(tmp_path, monkeypatch):
    calls = _scale_main(tmp_path, monkeypatch, "ab" * 32, "64x62")
    assert calls == [0] + [(tree, (64, 62), "glcm", 2, 1) for tree in (False, True, True, False)]
    doc = json.loads((tmp_path / "bench" / "SCALE_glcm-64x62-jobs2.json").read_text())
    assert doc["scale"] == "64x62" and doc["correct"] is True


def _scale_main(tmp_path, monkeypatch, change_digest, scale) -> list:
    """main's exit status, then each run_scale call of a two-pair --scale run."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "git", lambda *args: "" if args[0] == "status" else "f" * 40)
    monkeypatch.setattr(ab, "export", lambda rev, into: None)
    change = []
    monkeypatch.setattr(ab, "export_worktree", lambda root, into: change.append((root, into)))
    monkeypatch.setattr(ab, "compile_tree", lambda tree: None)
    calls = []

    def run_scale(tree, shape, technique, jobs, seed):
        assert change[0][0] == tmp_path  # the working tree of ROOT is exported for the change
        calls.append((tree == change[0][1], shape, technique, jobs, seed))
        digest = change_digest if tree == change[0][1] else "ab" * 32
        return ab.parse_scale_run(canned_scale_stdout(digest))

    monkeypatch.setattr(ab, "run_scale", run_scale)
    argv = ["--base", "HEAD", "--scale", scale, "--technique", "glcm", "--jobs", "2", "--pairs", "2"]
    return [ab.main(argv), *calls]


@pytest.mark.parametrize("mode", [["--workload", "glcm-noisy"], ["--scale", "64"]])
def test_both_exports_compile_before_the_first_run(tmp_path, monkeypatch, mode):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "wall_s",
                                                                         "better": "lower"}]}))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "git", lambda *args: "" if args[0] == "status" else "f" * 40)
    trees, events = {}, []
    monkeypatch.setattr(ab, "export", lambda rev, into: trees.setdefault("base", into))
    monkeypatch.setattr(ab, "export_worktree", lambda root, into: trees.setdefault("change", into))

    def compile_only(command, cwd, **kwargs):
        assert command == [ab.sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
        assert kwargs.get("check") is True
        events.append(("compile", cwd))
        return subprocess.CompletedProcess(command, 0, b"", b"")

    def run_perfbench(tree, workload, seed, seconds):
        events.append(("run", tree))
        return ab.parse_run(canned_stdout(0.05))

    def run_scale(tree, shape, technique, jobs, seed):
        events.append(("run", tree))
        return ab.parse_scale_run(canned_scale_stdout())

    monkeypatch.setattr(ab.subprocess, "run", compile_only)
    monkeypatch.setattr(ab, "run_perfbench", run_perfbench)
    monkeypatch.setattr(ab, "run_scale", run_scale)
    assert ab.main(["--base", "HEAD", *mode, "--pairs", "2"]) == 0
    assert sorted(events[:2]) == sorted(("compile", tree) for tree in trees.values())
    assert len(trees) == 2 and trees["base"] != trees["change"]
    assert events[2:] == [("run", trees[side]) for side in ("base", "change", "change", "base")]


def test_working_tree_export_holds_uncommitted_edits_and_new_files_and_no_bytecode(
    tmp_path, monkeypatch
):
    repo, out = tmp_path / "repo", tmp_path / "out"
    (repo / "src" / "__pycache__").mkdir(parents=True)

    def git(*args):
        command = ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.invalid", *args]
        _RUN(command, cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src" / "kept.py").write_text("committed\n")
    (repo / "src" / "deleted.py").write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "kept.py").write_text("edited\n")
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "src" / "deleted.py").unlink()
    (repo / "src" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"stale")

    def git_only(command, **kwargs):
        assert command[0] == "git", command
        return _RUN(command, **kwargs)

    monkeypatch.setattr(ab.subprocess, "run", git_only)
    ab.export_worktree(repo, out)
    files = sorted(path.relative_to(out).as_posix() for path in out.rglob("*") if path.is_file())
    assert files == [".gitignore", "src/kept.py", "src/new.py"]
    assert (out / "src" / "kept.py").read_text() == "edited\n"
    assert not (out / "src" / "__pycache__").exists()
