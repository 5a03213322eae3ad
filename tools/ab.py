"""A/B benchmark: the working tree against a base revision, in alternating runs.

    python tools/ab.py --base HEAD~1 --workload glcm-noisy --pairs 10
    python tools/ab.py --base HEAD~1 --scale 512 --technique glcm --jobs 1 --pairs 3
    python tools/ab.py --base HEAD~1 --scale 512x510 --technique glcm --jobs 1 --pairs 3

Both sides run from exports in a temporary directory: the base revision's
committed files (``git archive``), and the working tree's files as they stand,
tracked ones with their uncommitted edits and untracked ones that are not
ignored. So neither side imports a bytecode cache or build output the other
lacks. Before the first run both exports compile ``src`` and ``perfbench``
(``python -m compileall -q``), so that no timed run pays for compiling source
text that differs between the sides. Each pair then runs one command once in
each tree, against its own ``src/``; even pairs run the base first, odd pairs
the change first, so a drift of the host over the session falls on both sides
alike. Nothing under ``perfbench/`` is edited.

With ``--workload`` the command is ``perfbench/run.py --trace 0``, for
``--seconds``, which defaults to ``BENCHMARK.json``'s ``run_seconds``. With
``--scale SIDE`` or ``--scale HxW`` it is one ``run_experiment`` in a fresh
process on ``perfbench/workloads.noisy_scene(S, seed)``, which it imports, with
S the next even side >= max(H, W), cropped to H x W rows and columns; a scene
that is not square takes the kernel's three-pass path. That run records each
stage's seconds from ``timings``, the peak RSS (``ru_maxrss``) of the process
and of its forked children, their minor page faults summed (``ru_minflt``),
and the sha256 of the map file. At ``--jobs 1`` it then runs
``run_experiment`` a second time, untimed, under ``tracemalloc`` and records
its traced peak (``traced_peak_mb``), which does not depend on what the heap
held before. Then it saves the model file and loads it back, and records its
bytes and the seconds of ``save_pipeline`` and ``load_pipeline``; the peaks and
faults are read before both.

Both commands print what ``perfbench/run.py`` prints: an ``env`` line, and a
closing JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{value, unit}``); a scale run adds its ``map_sha256``. So both modes
write one document, ``bench/BENCH_<workload>-seed<seed>.json`` or
``bench/SCALE_<technique>-<SIDE or HxW>-jobs<jobs>.json``: after the mode's own
leading keys, the ``env`` line of each side, each side's distinct map digests,
and for every metric the runs report the medians and quartiles of both sides,
the pairs the change won, the base's quartile spread and whether the gain
clears it. A metric that ``BENCHMARK.json`` gates takes its direction and bound
from there (the others are lower-is-better and unbounded), with whether the
change's median is worse than the base's by more than the bound
(``worse_than_bound``) and whether the runs spread too widely to tell
(``unresolved``: the base quartile spread exceeds the bound, and not every
change run beat every base run). Every run is kept with its ``correct`` flag.
Exits 1 unless every run read ``correct: true`` with no failed operation and
every map of both sides is the same file.
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
    """The env line and the closing JSON line of one run, in either mode."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines else {}
    return {
        "correct": result.get("correct") is True and result.get("failed") == 0,
        "failed": result.get("failed"),
        "attempted": result.get("attempted"),
        "env": env,
        "map_sha256": result.get("map_sha256"),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
    }


def run(tree: Path, command: list[str]) -> dict:
    """command run in tree, as parse_run reads it; a run that failed keeps its stderr's tail."""
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    try:
        result = parse_run(done.stdout)
    except (ValueError, KeyError, TypeError, AttributeError):
        result = parse_run("")
    if done.returncode != 0 or not result["correct"]:
        result["correct"] = False
        result["stderr_tail"] = done.stderr.strip().splitlines()[-5:]
    return result


# One scale run: argv is height, width, technique, jobs, seed; it prints what
# perfbench/run.py prints.
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
print("env " + json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                           "nproc": len(os.sched_getaffinity(0))}))
metrics = {**{stage + "_s": t for stage, t in result.timings.items()}, **memory,
           "model_bytes": model_bytes, "save_pipeline_s": t1 - t0, "load_pipeline_s": t2 - t1}
units = {"peak_rss_mb": "MB", "children_peak_rss_mb": "MB", "traced_peak_mb": "MB",
         "minor_faults": "count", "model_bytes": "B"}
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "map_sha256": digest,
                  "metrics": {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()}}))
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


def map_digests(runs: list[dict]) -> dict[str, list[str]]:
    """Each side's distinct map digests, sorted; a run without a map adds none."""
    return {
        side: sorted({r["map_sha256"] for r in runs if r["side"] == side and r["map_sha256"]})
        for side in SIDES
    }


def digests_agree(runs: list[dict]) -> bool:
    """Every run read correct, and every map of both sides is the same file
    (a perfbench run reports none)."""
    digests = map_digests(runs)
    return (bool(runs) and all(r["correct"] for r in runs)
            and len(digests["base"]) <= 1 and digests["base"] == digests["change"])


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
    """Per metric that every run of a full pair reports: both sides' quartiles,
    pairs the change won, the base spread, and, for a metric with a bound (a
    fraction of the base median), whether the change's median is worse by more
    than it, and whether the runs spread too widely to tell: a base quartile
    spread above the bound, unless every change run beat every base run. Both
    flags are None for a metric without a bound; a metric not in better is
    lower-is-better."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    pairs = [p for p in by_pair.values() if all(side in p for side in SIDES)]
    first = pairs[0]["base"] if pairs else {}
    names = [n for n in first if all(n in p[side] for p in pairs for side in SIDES)]
    out = {}
    for name in names:
        direction = better.get(name, "lower")
        lower = direction == "lower"
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
            "better": direction,
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


def document(lead: dict, base_rev: str, change_rev: str, runs: list[dict], better: dict,
             bounds: dict | None = None) -> dict:
    """A BENCH or SCALE document: the mode's own leading keys, then what both share."""
    def env(side):
        return next((r["env"] for r in runs if r["side"] == side and r["env"]), None)

    return {
        **lead,
        "base": {"rev": base_rev, "env": env("base")},
        "change": {"rev": change_rev, "env": env("change")},
        "map_digests": map_digests(runs),
        "correct": digests_agree(runs),
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
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
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
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="per perfbench run; BENCHMARK.json's run_seconds by default")
    parser.add_argument("--seed", type=int, default=1, help="noise seed of the scenes")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.scale is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.scale is None:
        lead = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        shown = ("wall_s",)
        filename = f"BENCH_{args.workload}-seed{args.seed}.json"
    else:
        lead = {"scale": scale_name(args.scale), "technique": args.technique, "jobs": args.jobs,
                "seed": args.seed}
        command = [sys.executable, "-c", SCALE_RUN, *map(str, args.scale), args.technique,
                   str(args.jobs), str(args.seed)]
        shown = ("total_s", "peak_rss_mb")
        filename = f"SCALE_{args.technique}-{lead['scale']}-jobs{args.jobs}.json"

    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change_rev = git("rev-parse", "HEAD") + (" + uncommitted changes" if git("status", "--porcelain") else "")
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"] if "bound" in m}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export(base_rev, trees["base"])
        export_worktree(ROOT, trees["change"])
        for tree in trees.values():
            compile_tree(tree)

        def run_side(side):
            result = run(trees[side], command)
            values = " ".join(f"{k}={result['metrics'].get(k)}" for k in shown)
            print(f"{side:6} correct={result['correct']} {values}", file=sys.stderr, flush=True)
            return result

        runs = alternate(args.pairs, run_side)

    doc = document({**lead, "pairs": args.pairs}, base_rev, change_rev, runs, better, bounds)
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
    if not doc["correct"]:
        print(f"map digests: {doc['map_digests']}")
    print(f"wrote {path}; correct: {doc['correct']}")
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
