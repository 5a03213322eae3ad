"""Scenes, workloads and the one operation each workload repeats.

A workload is built only from slummap's public functions, on scenes made in
process from ``fixtures.make_two_texture_scene`` plus seeded integer noise.
The benchmark seed picks the noise; the experiment's master seed stays 0 as
in the CLI default, so every seed is a different but fully determined input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from slummap import ccf, experiment, fixtures, raster, texture

NOISE_LOW, NOISE_HIGH = -15000, 15000


def noisy_scene(size: int, seed) -> tuple[raster.BandStack, raster.LabelMask]:
    """The two-texture scene plus integer noise in [-15000, 15000), clipped to u16."""
    stack, mask = fixtures.make_two_texture_scene(size)
    noise = np.random.default_rng(seed).integers(NOISE_LOW, NOISE_HIGH, size=stack.samples.shape)
    samples = np.clip(stack.samples.astype(np.int64) + noise, 0, 65535).astype(np.uint16)
    return raster.BandStack(band_names=stack.band_names, samples=samples), mask


@dataclass(frozen=True)
class Workload:
    """One operation on one scene.

    ``map_size == 0``: the operation is ``run_experiment`` on a ``size``
    scene, then ``save_prediction_map``. ``map_size > 0``: set-up trains a
    ``technique`` model on the ``size`` scene and writes it and a
    ``map_size`` scene to disk; the operation is what ``slummap predict``
    does, scored against the scene's mask.
    """

    name: str
    technique: str
    size: int
    jobs: int = 1
    map_size: int = 0
    window: int = texture.DEFAULT_WINDOW

    @property
    def glcm_params(self) -> texture.GlcmParams | None:
        if self.technique != "glcm":
            return None
        return texture.GlcmParams(window=self.window)

    def windows(self, side: int) -> int:
        """GLCM windows per operation: valid centres x bands x directions."""
        params = self.glcm_params
        if params is None:
            return 0
        centres = max(0, side - params.window + 1) ** 2
        return centres * len(params.bands) * len(params.directions)


@dataclass
class OpResult:
    """What one operation produced, read after its timed region."""

    digest: str
    miou: float
    counts: dict[str, int] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)


def _model_counts(model: ccf.CcfModel) -> dict[str, int]:
    nodes = sum(len(tree.nodes) for tree in model.trees)
    leaves = sum(node.is_leaf for tree in model.trees for node in tree.nodes)
    return {
        "ccf.nodes": nodes,
        "ccf.leaves": leaves,
        "ccf.max_depth": max(ccf.tree_depth(tree) for tree in model.trees),
    }


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Runner:
    """Set-up state of one workload in one directory, and its operation."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.workdir = Path(workdir)
        self.map_path = self.workdir / "map.pgm"

    def setup(self) -> None:
        """Build the scene; for a map workload also train and write the model and scene."""
        w = self.w
        self.stack, self.mask = noisy_scene(w.size, self.seed)
        if not w.map_size:
            return
        result = experiment.run_experiment(
            self.stack, self.mask, technique=w.technique, glcm_params=w.glcm_params, jobs=w.jobs
        )
        self.model_path = self.workdir / "model.json"
        experiment.save_pipeline(
            experiment.Pipeline(
                technique=w.technique,
                glcm_params=w.glcm_params,
                scaler=result.scaler,
                model=result.model,
            ),
            self.model_path,
        )
        # A second noise stream, so the mapped scene is not the training scene.
        map_stack, self.map_mask = noisy_scene(w.map_size, (self.seed, 1))
        self.scene_path = self.workdir / "scene.hdr"
        raster.save_band_stack(map_stack, self.scene_path)

    def operation(self, jobs: int | None = None):
        """The timed work: (model, scored report, stage seconds) for :meth:`inspect`."""
        w = self.w
        jobs = w.jobs if jobs is None else jobs
        if w.map_size:
            pipeline = experiment.load_pipeline(self.model_path)
            stack = raster.load_band_stack(self.scene_path)
            features = experiment.extract_features(
                stack, pipeline.technique, pipeline.glcm_params, jobs=jobs
            )
            prediction, full = experiment.predict_scene(
                features, self.map_mask, pipeline.model, pipeline.scaler
            )
            raster.save_prediction_map(prediction, self.map_path)
            return pipeline.model, full, {}
        result = experiment.run_experiment(
            self.stack, self.mask, technique=w.technique, glcm_params=w.glcm_params, jobs=jobs
        )
        raster.save_prediction_map(result.prediction, self.map_path)
        stages = {k: v for k, v in result.timings.items() if k != "total"}
        return result.model, result.report, stages

    def inspect(self, model, report, stages) -> OpResult:
        """Digest the written map and count what the operation built or routed through."""
        side = self.w.map_size or self.w.size
        return OpResult(
            digest=file_digest(self.map_path),
            miou=100.0 * report.mean_iou,
            counts={**_model_counts(model), "texture.windows": self.w.windows(side)},
            stage_seconds=stages,
        )


# Scene sides keep a run to a few seconds per operation on a 2-core machine.
# BENCHMARK.json gates only the workloads dominated by vectorised numpy work;
# spectral-noisy and map-large are Python-bound, their medians drift more
# than any allowed bound between runs, so they are traced but not gated.
# NOTES.md has the measurements.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("glcm-noisy", "glcm", size=64),
        Workload("glcm-jobs2", "glcm", size=64, jobs=2),
        Workload("predict-glcm", "glcm", size=64, map_size=64),
        Workload("spectral-noisy", "spectral", size=64),
        Workload("map-large", "spectral", size=64, map_size=256),
    )
}
