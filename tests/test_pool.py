"""TaskPool, and --jobs invariance and pool lifetime of run_experiment.

Every check runs under a deadline: a worker that never answers fails the
test instead of hanging the suite. At most 3 processes, as elsewhere.
"""

import multiprocessing
import signal
from contextlib import contextmanager
from dataclasses import fields

import numpy as np
import pytest

from slummap.ccf import DegenerateDataError, ForestParams
from slummap.experiment import result_to_dict, run_experiment
from slummap.fixtures import make_two_texture_scene
from slummap.pool import TaskPool
from slummap.raster import BandStack, LabelMask, save_prediction_map
from slummap.texture import GlcmParams

DEADLINE_S = 60


@contextmanager
def deadline(seconds: float = DEADLINE_S):
    """Raise TimeoutError in the caller after ``seconds``, killing the workers first."""

    def expire(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _square(i):
    return i * i


def _fail_on_three(i):
    if i == 3:
        raise ValueError("task 3 failed")
    return i


# ---------------------------------------------------------------------------
# TaskPool
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("n_tasks", [0, 1, 2, 5])
def test_map_returns_results_in_task_order(jobs, n_tasks):
    with deadline(), TaskPool(jobs, 5) as pool:
        results = pool.map(_square, [(i,) for i in range(n_tasks)])
        assert list(results) == [i * i for i in range(n_tasks)]
    assert multiprocessing.active_children() == []


def test_size_is_jobs_capped_by_the_longest_task_list():
    for jobs, longest, size in [(1, 10, 1), (2, 10, 2), (3, 2, 2), (3, 1, 1), (3, 0, 1)]:
        with TaskPool(jobs, longest) as pool:
            assert pool.size == size


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_task_reaches_the_caller(jobs):
    # With 2 processes task 3 runs in the worker's share, with 1 in the caller's.
    with deadline():
        with pytest.raises(ValueError, match="task 3 failed"), TaskPool(jobs, 5) as pool:
            list(pool.map(_fail_on_three, [(i,) for i in range(5)]))
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# run_experiment: --jobs invariance and pool lifetime
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def noisy_scene():
    """A 24x24 two-texture scene with noise, so spectral trees grow deep."""
    stack, mask = make_two_texture_scene(24)
    noise = np.random.default_rng(3).integers(-15000, 15000, size=stack.samples.shape)
    samples = np.clip(stack.samples + noise, 0, 65535).astype(np.uint16)
    return BandStack(band_names=stack.band_names, samples=samples), mask


@pytest.fixture(scope="module")
def unbalanced_scene(noisy_scene):
    """Columns 0-15 of the noisy scene: 12 non-slum columns to 4 slum ones,
    so balancing draws from the majority class."""
    stack, mask = noisy_scene
    crop = BandStack(band_names=stack.band_names, samples=stack.samples[:, :, :16])
    return crop, LabelMask(labels=mask.labels[:, :16])


def _outputs(result, path):
    save_prediction_map(result.prediction, path)
    model = [[getattr(t, f.name).tobytes() for f in fields(t)] for t in result.model.trees]
    return model, result_to_dict(result), path.read_bytes()


@pytest.mark.parametrize(
    "technique, forest",
    [("glcm", ForestParams()), ("spectral", ForestParams()), ("glcm", ForestParams(n_trees=1))],
)
def test_run_experiment_outputs_do_not_depend_on_jobs(
    noisy_scene, unbalanced_scene, tmp_path, technique, forest
):
    params = GlcmParams(window=5)
    for stack, mask in (noisy_scene, unbalanced_scene):
        outputs = []
        for jobs in (1, 2, 3):
            with deadline():
                result = run_experiment(stack, mask, technique, params, forest, jobs=jobs)
            outputs.append(_outputs(result, tmp_path / f"map{jobs}.pgm"))
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]


def test_run_experiment_joins_its_workers(noisy_scene):
    stack, mask = noisy_scene
    with deadline():
        run_experiment(stack, mask, "glcm", GlcmParams(window=5), jobs=2)
    assert multiprocessing.active_children() == []


def test_run_experiment_joins_its_workers_when_it_raises(noisy_scene):
    stack, _ = noisy_scene
    # One class only: balancing raises after the pool has extracted the bands.
    single_class = LabelMask(labels=np.zeros((stack.height, stack.width), dtype=np.uint8))
    with deadline(), pytest.raises(DegenerateDataError):
        run_experiment(stack, single_class, "glcm", GlcmParams(window=5), jobs=2)
    assert multiprocessing.active_children() == []
