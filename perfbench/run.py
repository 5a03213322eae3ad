"""slummap benchmark: one workload, measured in a closed loop, outputs checked.

    python3 perfbench/run.py --workload glcm-noisy --seed 1 --seconds 10 --trace 0

Run from the repository root; slummap is imported from ``src/`` of the
same checkout. One process issues one operation at a time until
``--seconds`` have passed. With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` every other operation runs under the per-layer
tracer and the per-layer metrics are printed. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import slummap  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS, OpResult, Runner, Workload  # noqa: E402

SETUPS = 3  # set-up repeats per run; setup_s is their median
MIN_OPS = 4  # at least two traced and two untraced operations in a traced run
EXPECTED = json.loads((Path(__file__).parent / "expected_seed1.json").read_text())

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "miou_pct": "%",
    "setup_s": "s",
}
# Every count must repeat exactly across the operations of a run; these are
# also compared with the recorded seed-1 values across runs.
GUARDED_COUNTS = ("ccf.nodes", "ccf.leaves", "ccf.max_depth", "texture.windows")
TRACED_GUARDED_COUNTS = ("ccf.cca_calls", "rng.draws")


def cpu_seconds() -> float:
    """User + system seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (an upper bound)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def blas_info() -> dict:
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version"), "threads": None}
    libs = sorted({line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "noise_seed": seed,
    }


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


@dataclass
class Op:
    """One timed operation: wall and CPU seconds, what it produced, its trace."""

    tracer: Tracer | None
    wall: float | None = None
    cpu: float | None = None
    result: OpResult | None = None


def measure(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path, corrupt=None):
    """Set up SETUPS times, then run operations for ``seconds``; returns the run's summary.

    ``corrupt(index, map_path)`` is called after operation ``index`` wrote its
    map and before it is checked; the self-test uses it to damage one map.
    """
    setup_times, setup_traces = [], []
    for _ in range(SETUPS):
        runner = Runner(workload, seed, workdir)
        tracer = Tracer() if trace else None
        t0 = time.perf_counter()
        with tracer or nullcontext():
            runner.setup()
        runner.operation()  # warm-up: lazy imports, BLAS threads, allocator
        setup_times.append(time.perf_counter() - t0)
        setup_traces.append(tracer)
    model_bytes = runner.model_path.stat().st_size if workload.map_size else 0

    ops: list[Op] = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        op = Op(Tracer() if trace and len(ops) % 2 else None)
        try:
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            with op.tracer or nullcontext():
                out = runner.operation()
            op.wall = time.perf_counter() - t0
            op.cpu = cpu_seconds() - cpu0
            if corrupt is not None:
                corrupt(len(ops), runner.map_path)
            op.result = runner.inspect(*out)
            del out  # drop the model before the next operation builds its own
        except Exception:
            traceback.print_exc(file=sys.stderr)
        ops.append(op)

    done = [op for op in ops if op.result is not None]
    problems = []
    if workload.jobs > 1:
        # --jobs invariance: every map must equal the serial map of the same scene.
        reference = runner.inspect(*runner.operation(jobs=1)).digest
    else:
        reference = done[0].result.digest if done else None
    failed = sum(op.result is None or op.result.digest != reference for op in ops)
    if failed:
        problems.append(f"{failed} of {len(ops)} operations failed or wrote a different map")

    names = GUARDED_COUNTS + (TRACED_GUARDED_COUNTS if trace else ())
    counts = {}
    for op in done:
        seen = dict(op.result.counts)
        if op.tracer is not None:
            seen.update(op.tracer.counts)
        for name, value in seen.items():
            if counts.setdefault(name, value) != value:
                problems.append(f"{name} changed between operations: {counts[name]} != {value}")
    expected = EXPECTED.get(workload.name) if seed == 1 else None
    if expected is not None:
        if reference != expected["map_sha256"]:
            problems.append(f"map digest {reference} != recorded seed-1 digest")
        for name in names:
            if name in counts and counts[name] != expected["counts"][name]:
                problems.append(f"{name} = {counts[name]} != recorded seed-1 value {expected['counts'][name]}")

    return {
        "ops": ops,
        "done": done,
        "failed": failed,
        "digest": reference,
        "problems": problems,
        "setup_times": setup_times,
        "setup_traces": setup_traces,
        "model_bytes": model_bytes,
        "counts": counts,
    }


def end_to_end(run: dict) -> dict[str, float]:
    done = run["done"]
    return {
        "wall_s": _median(op.wall for op in done),
        "cpu_s": _median(op.cpu for op in done),
        "peak_rss_mb": peak_rss_mb(),
        "miou_pct": _median(op.result.miou for op in done),
        "setup_s": _median(run["setup_times"]),
    }


def per_layer(run: dict) -> dict[str, tuple[float, str]]:
    traced = [op for op in run["done"] if op.tracer is not None]
    untraced = [op for op in run["done"] if op.tracer is None]

    def span(name):
        return _median(op.tracer.seconds[name] for op in traced)

    def stage(name):
        return _median(op.result.stage_seconds.get(name, 0.0) for op in traced)

    def per_op(fn):
        return _median(fn(op.tracer, op.result) for op in traced)

    counts = run["counts"]

    def count(name):
        return counts.get(name, 0)

    metrics = {}
    for name in ("extract", "assemble", "balance", "split", "scale", "train", "predict", "map"):
        metrics[f"experiment.{name}_s"] = (stage(name), "s")
    kernel = lambda t, r: t.seconds["texture.extract"] - t.seconds["texture.quantize"]  # noqa: E731
    metrics.update(
        {
            "texture.extract_s": (span("texture.extract"), "s"),
            "texture.quantize_s": (span("texture.quantize"), "s"),
            "texture.kernel_s": (per_op(kernel), "s"),
            "texture.windows": (count("texture.windows"), "count"),
            "texture.windows_per_s": (
                per_op(lambda t, r: r.counts["texture.windows"] / k if (k := kernel(t, r)) > 0 else 0.0),
                "1/s",
            ),
            "rng.draw_calls": (count("rng.draw_calls"), "count"),
            "rng.draws": (count("rng.draws"), "count"),
            "rng.draw_s": (span("rng.draw"), "s"),
            "ccf.train_s": (span("ccf.train"), "s"),
            "ccf.grow_s": (span("ccf.grow"), "s"),
            "ccf.cca_s": (span("ccf.cca"), "s"),
            "ccf.grow_self_s": (
                per_op(lambda t, r: t.seconds["ccf.grow"] - t.seconds["ccf.cca"] - t.seconds["rng.draw_in_grow"]),
                "s",
            ),
            "ccf.cca_calls": (count("ccf.cca_calls"), "count"),
            "ccf.cca_degenerate": (count("ccf.cca_degenerate"), "count"),
            "ccf.cca_useful_frac": (
                per_op(
                    lambda t, r: (r.counts["ccf.nodes"] - r.counts["ccf.leaves"]) / c
                    if (c := t.counts["ccf.cca_calls"])
                    else 0.0
                ),
                "ratio",
            ),
            "ccf.nodes": (count("ccf.nodes"), "count"),
            "ccf.leaves": (count("ccf.leaves"), "count"),
            "ccf.max_depth": (count("ccf.max_depth"), "count"),
            "ccf.route_s": (span("ccf.route"), "s"),
            "ccf.route_rows": (count("ccf.route_rows"), "count"),
            "ccf.predict_s": (span("ccf.predict"), "s"),
            "experiment.load_pipeline_s": (span("experiment.load_pipeline"), "s"),
            "experiment.save_pipeline_s": (
                _median(t.seconds["experiment.save_pipeline"] for t in run["setup_traces"]),
                "s",
            ),
            "experiment.model_bytes": (run["model_bytes"], "B"),
            "raster.load_s": (span("raster.load"), "s"),
            "raster.save_s": (span("raster.save"), "s"),
            "raster.bytes_read": (count("raster.bytes_read"), "B"),
            "raster.bytes_written": (count("raster.bytes_written"), "B"),
            "trace.overhead_s": (
                _median(op.wall for op in traced) - _median(op.wall for op in untraced),
                "s",
            ),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="noise seed of the scenes")
    parser.add_argument("--seconds", type=float, default=15.0, help="how long operations are issued")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(slummap.__file__).resolve().parents:
        print(f"slummap was imported from {slummap.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_tmp" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        metrics = per_layer(run)
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(run).items()}
    attempted = len(run["ops"])
    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_frac {run['failed'] / attempted} fraction")
    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not run["problems"],
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
