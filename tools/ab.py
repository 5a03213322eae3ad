"""A/B benchmark: the working tree against a base revision, in alternating runs.

    python tools/ab.py --base HEAD~1 --workload glcm-noisy --pairs 10 --seconds 6
    python tools/ab.py --base HEAD~1 --scale 512 --technique glcm --jobs 1 --pairs 3
    python tools/ab.py --base HEAD~1 --scale 512x510 --technique glcm --jobs 1 --pairs 3

Both sides run from exports in a temporary directory: the base revision's
committed files (``git archive``), and the working tree's files as they stand,
tracked ones with their uncommitted edits and untracked ones that are not
ignored. So neither side imports a bytecode cache or build output the other
lacks. Before the first run both exports compile ``src`` and ``perfbench``
(``python -m compileall -q``), so that no timed run pays for compiling source
text that differs between the sides. Each pair then runs once in each tree,
against its own ``src/``; even pairs run the base first, odd pairs the change
first, so a drift of the host over the session falls on both sides alike.
Nothing under ``perfbench/`` is edited.

With ``--workload`` a run is ``perfbench/run.py --trace 0``. Writes
``bench/BENCH_<workload>-seed<seed>.json``: for each end-to-end metric the medians
and quartiles of both sides, the pairs the change won, the base's quartile
spread and whether the gain clears it; its ``BENCHMARK.json`` bound, whether
the change's median is worse than the base's by more than the bound
(``worse_than_bound``), and whether the runs spread too widely to tell
(``unresolved``: the base quartile spread exceeds the bound, and not every
change run beat every base run); the ``env`` line of each side; and
every run with its ``correct`` flag. Exits 1 unless every run read
``correct: true`` with no failed operation.

With ``--scale SIDE`` or ``--scale HxW`` a run is one ``run_experiment`` in
a fresh process on ``perfbench/workloads.noisy_scene(S, seed)``, which it
imports, with S the next even side >= max(H, W), cropped to H x W rows and
columns; a scene that is not square takes the kernel's three-pass path. It
records each stage's seconds from ``timings``, the peak RSS (``ru_maxrss``) of
the process and of its forked children, their minor page faults summed
(``ru_minflt``), and the sha256 of the map file. At ``--jobs 1`` it then runs
``run_experiment`` a second time, untimed, under ``tracemalloc`` and records
its traced peak (``traced_peak_mb``), which does not depend on what the heap
held before. Then it saves the model file and loads it back, and records its
bytes and the seconds of ``save_pipeline`` and ``load_pipeline``; the peaks and
faults are read before both.
Writes ``bench/SCALE_<technique>-<SIDE or HxW>-jobs<jobs>.json`` with the same
statistics per measure. Exits 1 unless every run finished and all maps are
the same.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
WIN_SHARE = 0.9  # a claimed gain must win this share of the pairs


def parse_run(stdout: str) -> dict:
    """The env line and the closing JSON line of one ``perfbench/run.py`` run."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines else {}
    return {
        "correct": result.get("correct") is True and result.get("failed") == 0,
        "failed": result.get("failed"),
        "attempted": result.get("attempted"),
        "env": env,
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
    }


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    try:
        run = parse_run(done.stdout)
    except (ValueError, KeyError, TypeError):
        run = {"correct": False, "failed": None, "attempted": None, "env": None, "metrics": {}}
    if done.returncode != 0 or not run["correct"]:
        run["correct"] = False
        run["stderr_tail"] = done.stderr.strip().splitlines()[-5:]
    return run


# One scale run: argv is height, width, technique, jobs, seed; the last line
# printed is JSON.
SCALE_RUN = """
import hashlib, json, os, platform, resource, sys, tempfile, time, tracemalloc
sys.path[:0] = ["src", "perfbench"]
import numpy as np
from slummap import experiment, raster
from slummap.texture import GlcmParams
from workloads import noisy_scene
height, width, technique = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
jobs, seed = int(sys.argv[4]), int(sys.argv[5])
side = max(height, width) + max(height, width) % 2
stack, mask = noisy_scene(side, seed)
stack = raster.BandStack(band_names=stack.band_names, samples=stack.samples[:, :height, :width])
mask = raster.LabelMask(labels=mask.labels[:height, :width])
params = GlcmParams() if technique == "glcm" else None
result = experiment.run_experiment(stack, mask, technique=technique, glcm_params=params, jobs=jobs)
# the peaks and faults before the model file is written, so they stay the experiment's own
usage = {who: resource.getrusage(getattr(resource, "RUSAGE_" + who)) for who in ("SELF", "CHILDREN")}
memory = {"peak_rss_mb": usage["SELF"].ru_maxrss / 1024,
          "children_peak_rss_mb": usage["CHILDREN"].ru_maxrss / 1024,
          "minor_faults": sum(u.ru_minflt for u in usage.values())}
if jobs == 1:  # tracemalloc sees no forked child, so a pool's peak would read low
    tracemalloc.start()
    experiment.run_experiment(stack, mask, technique=technique, glcm_params=params, jobs=jobs)
    memory["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
with tempfile.TemporaryDirectory() as tmp:
    raster.save_prediction_map(result.prediction, os.path.join(tmp, "map.pgm"))
    digest = hashlib.sha256(open(os.path.join(tmp, "map.pgm"), "rb").read()).hexdigest()
    model = os.path.join(tmp, "model.json")
    pipeline = experiment.Pipeline(technique, params, result.scaler, result.model)
    t0 = time.perf_counter()
    experiment.save_pipeline(pipeline, model)
    t1 = time.perf_counter()
    experiment.load_pipeline(model)
    t2 = time.perf_counter()
    model_bytes = os.path.getsize(model)
print(json.dumps({
    "env": {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0))},
    "map_sha256": digest,
    "metrics": {**{stage + "_s": t for stage, t in result.timings.items()}, **memory,
                "model_bytes": model_bytes, "save_pipeline_s": t1 - t0,
                "load_pipeline_s": t2 - t1},
}))
"""


def parse_scale(text: str) -> tuple[int, int]:
    """``SIDE`` or ``HxW``, as the scene's (height, width)."""
    found = re.fullmatch(r"([0-9]+)(?:x([0-9]+))?", text)
    shape = (int(found[1]), int(found[2] or found[1])) if found else (0, 0)
    if min(shape) < 1:
        raise argparse.ArgumentTypeError(f"expected SIDE or HxW, each at least 1, got {text!r}")
    return shape


def scale_name(shape: tuple[int, int]) -> int | str:
    """How a scale file names its scene: SIDE if it is square, else HxW."""
    height, width = shape
    return height if height == width else f"{height}x{width}"


def parse_scale_run(stdout: str) -> dict:
    """The JSON line that closes one scale run."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return {
        "correct": bool(result.get("map_sha256")),
        "env": result.get("env"),
        "map_sha256": result.get("map_sha256"),
        "metrics": result.get("metrics", {}),
    }


def run_scale(tree: Path, shape: tuple[int, int], technique: str, jobs: int, seed: int) -> dict:
    command = [sys.executable, "-c", SCALE_RUN, *map(str, shape), technique, str(jobs), str(seed)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    try:
        run = parse_scale_run(done.stdout)
    except (ValueError, AttributeError):
        run = {"correct": False, "env": None, "map_sha256": None, "metrics": {}}
    if done.returncode != 0 or not run["correct"]:
        run["correct"] = False
        run["stderr_tail"] = done.stderr.strip().splitlines()[-5:]
    return run


def map_digests(runs: list[dict]) -> dict[str, list[str]]:
    """Each side's distinct map digests, sorted; a run without a map adds none."""
    return {
        side: sorted({r["map_sha256"] for r in runs if r["side"] == side and r["map_sha256"]})
        for side in SIDES
    }


def digests_agree(runs: list[dict]) -> bool:
    """Every run made a map, and every map of both sides is the same file."""
    digests = map_digests(runs)
    return (bool(runs) and all(r["correct"] for r in runs)
            and len(digests["base"]) == 1 and digests["base"] == digests["change"])


def scale_document(args, base_rev: str, change_rev: str, runs: list[dict]) -> dict:
    def env(side):
        return next((r["env"] for r in runs if r["side"] == side and r["env"]), None)

    names = list(dict.fromkeys(n for r in runs for n in r["metrics"]))
    return {
        "scale": scale_name(args.scale),
        "technique": args.technique,
        "jobs": args.jobs,
        "seed": args.seed,
        "pairs": args.pairs,
        "base": {"rev": base_rev, "env": env("base")},
        "change": {"rev": change_rev, "env": env("change")},
        "map_digests": map_digests(runs),
        "correct": digests_agree(runs),
        "metrics": summarize(runs, dict.fromkeys(names, "lower")),
        "runs": runs,
    }


def alternate(pairs: int, run_side) -> list[dict]:
    """pairs x (base, change) runs of run_side(side); odd pairs run the change first."""
    runs = []
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            runs.append({"pair": pair, "side": side, "first": position == 0, **run_side(side)})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, linearly interpolated."""
    v = sorted(values)

    def at(p):
        pos = p * (len(v) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (pos - lo)

    return at(0.25), statistics.median(v), at(0.75)


def summarize(runs: list[dict], better: dict[str, str], bounds: dict | None = None) -> dict[str, dict]:
    """Per metric: both sides' quartiles, pairs the change won, the base spread,
    and, for a metric with a bound (a fraction of the base median), whether the
    change's median is worse by more than it, and whether the runs spread too
    widely to tell: a base quartile spread above the bound, unless every change
    run beat every base run. Both flags are None for a metric without a bound."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [p for p in by_pair.values() if all(side in p for side in SIDES)]
    names = [n for n in better if pairs and all(n in p[side] for p in pairs for side in SIDES)]
    out = {}
    for name in names:
        lower = better[name] == "lower"
        values = {side: [p[side][name] for p in pairs] for side in SIDES}
        stats = {side: dict(zip(("q1", "median", "q3"), quartiles(values[side]))) for side in SIDES}
        base_median, change_median = stats["base"]["median"], stats["change"]["median"]
        won = sum((c < b) if lower else (c > b) for b, c in zip(values["base"], values["change"]))
        gain = (base_median - change_median) if lower else (change_median - base_median)
        spread = stats["base"]["q3"] - stats["base"]["q1"]
        bound = (bounds or {}).get(name)
        worse = unresolved = None
        if bound is not None:
            limit = bound * abs(base_median)
            beat_all = (max(values["change"]) < min(values["base"]) if lower
                        else min(values["change"]) > max(values["base"]))
            worse = -gain > limit
            unresolved = spread > limit and not beat_all
        out[name] = {
            "better": better[name],
            "base": stats["base"],
            "change": stats["change"],
            "change_pct": 100.0 * (change_median - base_median) / base_median if base_median else None,
            "pairs": len(pairs),
            "pairs_won": won,
            "base_quartile_spread": spread,
            "gain_clears_spread": won >= math.ceil(WIN_SHARE * len(pairs)) and gain > spread,
            "bound": bound,
            "worse_than_bound": worse,
            "unresolved": unresolved,
        }
    return out


def bench_document(args, base_rev: str, change_rev: str, runs: list[dict], better: dict,
                   bounds: dict | None = None) -> dict:
    def env(side):
        return next((r["env"] for r in runs if r["side"] == side and r["env"]), None)

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "base": {"rev": base_rev, "env": env("base")},
        "change": {"rev": change_rev, "env": env("change")},
        "correct": bool(runs) and all(r["correct"] for r in runs),
        "metrics": summarize(runs, better, bounds),
        "runs": runs,
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The committed files of rev, as ``git archive`` writes them, under into."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def export_worktree(root: Path, into: Path) -> None:
    """The working tree of the repository at root, as it stands, under into:
    tracked files that still exist and untracked files that are not ignored."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=root, check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        if (root / name).is_file():  # not a tracked file deleted in the working tree
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, into / name)


def compile_tree(tree: Path) -> None:
    """Byte-compile tree's ``src`` and ``perfbench``, as every run then imports them."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=tree,
                   check=True, capture_output=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="a perfbench workload to run")
    mode.add_argument("--scale", type=parse_scale, metavar="SIDE|HxW",
                      help="scene side, or height x width, of a scale run")
    parser.add_argument("--technique", choices=("glcm", "spectral"), default="glcm",
                        help="with --scale")
    parser.add_argument("--jobs", type=int, default=1, help="with --scale")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0, help="per run, as perfbench/run.py takes it")
    parser.add_argument("--seed", type=int, default=1, help="noise seed of the scenes")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.scale is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")

    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change_rev = git("rev-parse", "HEAD") + (" + uncommitted changes" if git("status", "--porcelain") else "")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"] if "bound" in m}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export(base_rev, trees["base"])
        export_worktree(ROOT, trees["change"])
        for tree in trees.values():
            compile_tree(tree)

        def run_side(side):
            if args.scale is None:
                run = run_perfbench(trees[side], args.workload, args.seed, args.seconds)
                shown = ("wall_s",)
            else:
                run = run_scale(trees[side], args.scale, args.technique, args.jobs, args.seed)
                shown = ("total_s", "peak_rss_mb")
            values = " ".join(f"{k}={run['metrics'].get(k)}" for k in shown)
            print(f"{side:6} correct={run['correct']} {values}", file=sys.stderr, flush=True)
            return run

        runs = alternate(args.pairs, run_side)

    if args.scale is None:
        doc = bench_document(args, base_rev, change_rev, runs, better, bounds)
        filename = f"BENCH_{args.workload}-seed{args.seed}.json"
    else:
        doc = scale_document(args, base_rev, change_rev, runs)
        filename = f"SCALE_{args.technique}-{scale_name(args.scale)}-jobs{args.jobs}.json"
    path = ROOT / "bench" / filename
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in doc["metrics"].items():
        pct = "" if m["change_pct"] is None else f" ({m['change_pct']:+.1f}%)"
        flags = "" if m["bound"] is None else (
            f", bound {m['bound']:.0%}: worse_than_bound {m['worse_than_bound']}, "
            f"unresolved {m['unresolved']}")
        print(f"{name}: {m['base']['median']:.6g} -> {m['change']['median']:.6g}{pct}, "
              f"won {m['pairs_won']}/{m['pairs']}, base spread {m['base_quartile_spread']:.3g}{flags}")
    if args.scale is not None and not doc["correct"]:
        print(f"map digests: {doc['map_digests']}")
    print(f"wrote {path}; correct: {doc['correct']}")
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
