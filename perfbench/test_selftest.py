"""Self-test of the benchmark on tiny scenes: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

import run
from layertrace import Tracer
from workloads import Workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "glcm-noisy": Workload("glcm-noisy", "glcm", size=32, window=5),
    "spectral-noisy": Workload("spectral-noisy", "spectral", size=16),
    "map-large": Workload("map-large", "spectral", size=16, map_size=32),
    "glcm-jobs2": Workload("glcm-jobs2", "glcm", size=32, jobs=2, window=5),
    "predict-glcm": Workload("predict-glcm", "glcm", size=32, map_size=32, window=5),
}
SEED = 7  # no recorded values, so tiny scenes are not compared with seed-1 records


def _slummap_namespace():
    snapshot = {}
    for name, module in sys.modules.items():
        if name == "slummap" or name.startswith("slummap."):
            snapshot.update({(name, k): v for k, v in vars(module).items()})
    snapshot.update({("Pcg32", k): v for k, v in vars(run.slummap.rng.Pcg32).items()})
    return snapshot


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_prints_with_its_unit(monkeypatch, capsys, name, trace):
    monkeypatch.setitem(run.WORKLOADS, name, TINY[name])
    argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= run.MIN_OPS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert f"{metric['name']} {printed['value']} {metric['unit']}" in lines
    assert "failed_frac 0.0 fraction" in lines
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["noise_seed"] == SEED and env["nproc"] >= 1 and env["numpy"]


def test_traced_run_restores_every_module_attribute(tmp_path):
    before = _slummap_namespace()
    with Tracer():
        assert run.slummap.experiment.predict is not before[("slummap.ccf", "predict")]
        assert run.slummap.ccf.predict is run.slummap.experiment.predict
    summary = run.measure(TINY["map-large"], SEED, 0, True, tmp_path)
    summary = run.measure(TINY["glcm-noisy"], SEED, 0, True, tmp_path)
    after = _slummap_namespace()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not summary["problems"]


def test_traced_counts_repeat_across_runs(tmp_path):
    first = run.measure(TINY["spectral-noisy"], SEED, 0, True, tmp_path)["counts"]
    second = run.measure(TINY["spectral-noisy"], SEED, 0, True, tmp_path)["counts"]
    assert first == second
    assert first["ccf.nodes"] > first["ccf.leaves"] > 0
    assert first["rng.draws"] > 0 and first["ccf.cca_calls"] > 0


def test_corrupted_map_counts_as_failed_operation(tmp_path):
    def corrupt(index, path):
        if index == 2:
            data = bytearray(Path(path).read_bytes())
            data[-1] ^= 0xFF
            Path(path).write_bytes(bytes(data))

    summary = run.measure(TINY["glcm-noisy"], SEED, 0, False, tmp_path, corrupt=corrupt)
    assert summary["failed"] == 1
    assert summary["problems"]


def test_recorded_seed1_values_agree_between_glcm_workloads():
    noisy, jobs2 = run.EXPECTED["glcm-noisy"], run.EXPECTED["glcm-jobs2"]
    assert noisy["map_sha256"] == jobs2["map_sha256"]
    assert noisy["counts"] == jobs2["counts"]
    assert set(run.EXPECTED) == set(run.WORKLOADS)


def test_gated_workloads_are_runnable():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
