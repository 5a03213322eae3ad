"""tools/ab.py on canned perfbench output: statistics and the BENCH file schema.

No test here launches a run: subprocess.run is replaced by a function that fails.
"""

import importlib.util
import json
from argparse import Namespace
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = {"wall_s": "lower", "peak_rss_mb": "lower", "miou_pct": "higher"}
ENV = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "noise_seed": 1}


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
        "base_quartile_spread", "gain_clears_spread",
    }
    assert [r["correct"] for r in doc["runs"]] == [True] * 4
    runs[3]["correct"] = False
    assert ab.bench_document(args, "a" * 40, "b" * 40, runs, BETTER)["correct"] is False
    assert ab.bench_document(args, "a" * 40, "b" * 40, [], BETTER)["correct"] is False
