"""fork_map, --jobs invariance and child reaping of run_experiment, and the
C heap helpers beside fork_map.

Every check runs under a deadline: a child that never answers fails the test
instead of hanging the suite, and fork_map kills its children when the
deadline interrupts it. Every check that forks ends by asserting that no
child of this process is left, running or unreaped. At most 3 processes, as
elsewhere.
"""

import ctypes
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import slummap
from slummap import ccf, pool, texture
from slummap.ccf import DegenerateDataError, ForestParams, train_forest
from slummap.experiment import extract_features, result_to_dict, run_experiment
from slummap.fixtures import make_two_texture_scene
from slummap.pool import fork_map
from slummap.raster import BandStack, LabelMask, save_prediction_map
from slummap.texture import GlcmParams

DEADLINE_S = 60


@contextmanager
def deadline(seconds: float = DEADLINE_S):
    """Raise TimeoutError in the caller after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child():
    """No child of this process is left, whether running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children fork_map forks, in fork order."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture
def always_fork(monkeypatch):
    """Both parallel stages fork whatever the scene's size and the host's speed:
    one band per kernel pass, and no serial work too small for a fork."""
    monkeypatch.setattr(texture, "_GROUP_PIXELS", 1)
    monkeypatch.setattr(ccf, "_FORK_BREAK_EVEN_S", 0.0)


def _square(i):
    return i * i


def _fail_on(bad):
    def task(i):
        if i == bad:
            raise ValueError(f"task {bad} failed")
        return i

    return task


class _NeedsTwoArgs(Exception):
    """Pickles, but cannot be rebuilt from its pickle: its args hold one string."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


# ---------------------------------------------------------------------------
# fork_map
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("n_tasks", [0, 1, 2, 5])
def test_map_returns_results_in_task_order(jobs, n_tasks):
    with deadline():
        results = fork_map(_square, [(i,) for i in range(n_tasks)], jobs)
        assert list(results) == [i * i for i in range(n_tasks)]
    assert_no_child()


def test_children_are_jobs_minus_one_capped_by_the_task_list(forks):
    cases = [(1, 10, 0), (2, 10, 1), (3, 10, 2), (3, 2, 1), (3, 1, 0), (3, 0, 0)]
    for jobs, n_tasks, children in cases:
        forks.clear()
        with deadline():
            list(fork_map(_square, [(i,) for i in range(n_tasks)], jobs))
        assert len(forks) == children, (jobs, n_tasks)
    assert_no_child()


def test_the_caller_computes_the_last_and_smallest_share():
    with deadline():
        pids = fork_map(lambda i: os.getpid(), [(i,) for i in range(5)], 2)
    assert [pid == os.getpid() for pid in pids] == [False, True, False, True, False]
    assert_no_child()


def test_one_share_computes_each_task_as_it_is_consumed():
    computed = []

    def task(i):
        computed.append(i)
        return i

    results = fork_map(task, [(i,) for i in range(3)], 1)
    assert computed == []
    assert next(results) == 0 and computed == [0]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_task_reaches_the_caller(jobs):
    # With 2 processes task 2 runs in the child's share, with 1 in the caller's.
    with deadline(), pytest.raises(ValueError, match="task 2 failed"):
        list(fork_map(_fail_on(2), [(i,) for i in range(5)], jobs))
    assert_no_child()


def test_a_failing_task_in_the_callers_share_reaches_the_caller():
    # Of 5 tasks over 2 processes, task 3 runs in the caller's share.
    with deadline(), pytest.raises(ValueError, match="task 3 failed"):
        list(fork_map(_fail_on(3), [(i,) for i in range(5)], 2))
    assert_no_child()


def test_a_child_that_exits_without_a_result_is_an_error():
    def task(i):
        if i == 0:  # in the child's share
            os._exit(3)
        return i

    with deadline(), pytest.raises(RuntimeError, match="exit status 3 and no result"):
        fork_map(task, [(0,), (1,)], 2)
    assert_no_child()


@pytest.mark.parametrize(
    "error, named",
    [
        (ValueError("task 0 failed", threading.Lock()), "ValueError.'task 0 failed'"),
        (_NeedsTwoArgs("task 0", "its second argument"), "task 0 and its second argument"),
    ],
    ids=["does-not-pickle", "does-not-unpickle"],
)
def test_an_exception_that_cannot_be_pickled_is_named_in_the_caller(error, named):
    def task(i):
        if i == 0:  # in the child's share
            raise error
        return i

    with deadline(), pytest.raises(RuntimeError, match=f"{named}.*cannot be pickled"):
        fork_map(task, [(0,), (1,)], 2)
    assert_no_child()


def test_the_callers_share_raising_kills_a_busy_child(forks):
    def task(i):
        if i == 0:  # the child's share
            time.sleep(DEADLINE_S)
        raise ValueError("the caller's share failed")

    start = time.monotonic()
    with deadline(), pytest.raises(ValueError, match="the caller's share failed"):
        fork_map(task, [(0,), (1,)], 2)
    assert time.monotonic() - start < 10
    assert len(forks) == 1
    assert_no_child()


def test_an_interrupted_caller_kills_the_children_it_waits_for(forks):
    def task(i):
        if i < 2:  # the children's shares; the caller's is task 2
            time.sleep(DEADLINE_S)
        return i

    start = time.monotonic()
    with deadline(0.5), pytest.raises(TimeoutError):
        fork_map(task, [(0,), (1,), (2,)], 3)
    assert time.monotonic() - start < 10
    assert len(forks) == 2
    assert_no_child()


# ---------------------------------------------------------------------------
# run_experiment: --jobs invariance and child reaping
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


def _tree_bytes(model):
    return [[getattr(tree, f.name).tobytes() for f in fields(tree)] for tree in model.trees]


def _outputs(result, path):
    save_prediction_map(result.prediction, path)
    return _tree_bytes(result.model), result_to_dict(result), path.read_bytes()


@pytest.mark.parametrize(
    "technique, forest",
    [("glcm", ForestParams()), ("spectral", ForestParams()), ("glcm", ForestParams(n_trees=1))],
)
def test_run_experiment_outputs_do_not_depend_on_jobs(
    noisy_scene, unbalanced_scene, tmp_path, technique, forest, always_fork, forks
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
    assert forks  # every case forks in one stage at least
    assert_no_child()


def test_run_experiment_joins_its_workers(noisy_scene, always_fork, forks):
    stack, mask = noisy_scene
    with deadline():
        run_experiment(stack, mask, "glcm", GlcmParams(window=5), jobs=2)
    # one child for the band groups, one for the trees
    assert len(forks) == 2
    assert_no_child()


def test_run_experiment_joins_its_workers_when_it_raises(noisy_scene, always_fork, forks):
    stack, _ = noisy_scene
    # One class only: balancing raises after two processes extracted the bands.
    single_class = LabelMask(labels=np.zeros((stack.height, stack.width), dtype=np.uint8))
    with deadline(), pytest.raises(DegenerateDataError):
        run_experiment(stack, single_class, "glcm", GlcmParams(window=5), jobs=2)
    assert len(forks) == 1
    assert_no_child()


@pytest.mark.parametrize("side, children", [(64, 0), (66, 1)])
def test_extraction_forks_only_when_the_bands_take_two_passes(forks, side, children):
    # At the defaults all four bands share each pass up to 64x64, and the
    # caller extracts them alone; from 65x65 up they take two passes or more.
    stack, _ = make_two_texture_scene(side)
    with deadline():
        features = extract_features(stack, "glcm", GlcmParams(), jobs=2)
    assert len(forks) == children
    assert features.values.tobytes() == extract_features(stack, "glcm").values.tobytes()
    assert_no_child()


@pytest.mark.parametrize("break_even, children", [(0.0, 1), (float("inf"), 0)])
def test_training_forks_only_past_its_break_even(monkeypatch, forks, break_even, children):
    x = np.random.default_rng(4).normal(size=(200, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(np.uint8)
    monkeypatch.setattr(ccf, "_FORK_BREAK_EVEN_S", break_even)
    with deadline():
        model = train_forest(x, y, jobs=2)
    assert len(forks) == children
    assert_no_child()
    assert _tree_bytes(model) == _tree_bytes(train_forest(x, y))


# ---------------------------------------------------------------------------
# The C heap
# ---------------------------------------------------------------------------


def _python(script: str) -> subprocess.CompletedProcess:
    """script in a fresh interpreter that imports slummap from this checkout,
    without the caller's glibc heap settings (MALLOC_*), which would switch
    glibc's adaptive thresholds off."""
    paths = [str(Path(slummap.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=DEADLINE_S)


def _is_glibc() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
    except (OSError, TypeError):
        return False


class _NoHeap:
    """A C library without malloc_trim, malloc and free."""

    def __init__(self, name):
        pass


def _cdll_raising(error):
    def cdll(name):
        raise error("no C library under that name")

    return cdll


@pytest.mark.parametrize("cdll", [_cdll_raising(OSError), _cdll_raising(TypeError), _NoHeap],
                         ids=["oserror", "typeerror", "no-heap-functions"])
def test_without_the_c_librarys_heap_functions_the_heap_helpers_do_nothing(cdll, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert pool._glibc_heap() is None
    monkeypatch.setattr(pool, "_MALLOC_TRIM", None)
    pool.release_free_heap()


_TRAIN_WITHOUT_HEAP = """
import ctypes
import numpy as np
{cdll}
ctypes.CDLL = CDLL
import slummap
from slummap import pool
assert pool._MALLOC_TRIM is None
x = np.random.default_rng(0).normal(size=(60, 3))
slummap.train_forest(x, (x[:, 0] > 0).astype(np.uint8), slummap.ForestParams(n_trees=3))
print("trained")
"""


@pytest.mark.parametrize("cdll", [
    "def CDLL(name):\n    raise OSError('no C library under that name')",
    "class CDLL:\n    def __init__(self, name):\n        pass",
], ids=["cdll-raises", "no-heap-functions"])
def test_slummap_imports_and_trains_without_the_c_librarys_heap_functions(cdll):
    done = _python(_TRAIN_WITHOUT_HEAP.format(cdll=cdll))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["trained"]


# A noisy 64² glcm model, then extract + predict as `slummap predict` does:
# two calls to warm up, then the minor page faults per call over five more.
_WARM_FAULTS = """
import resource
import numpy as np
from slummap.experiment import extract_features, predict_scene, run_experiment
from slummap.fixtures import make_two_texture_scene
from slummap.raster import BandStack
from slummap.texture import GlcmParams

stack, mask = make_two_texture_scene(64)
noise = np.random.default_rng(1).integers(-15000, 15000, size=stack.samples.shape)
samples = np.clip(stack.samples.astype(np.int64) + noise, 0, 65535).astype(np.uint16)
stack = BandStack(band_names=stack.band_names, samples=samples)
result = run_experiment(stack, mask, technique="glcm", glcm_params=GlcmParams())


def call():
    features = extract_features(stack, "glcm", GlcmParams())
    predict_scene(features, mask, result.model, result.scaler)


for _ in range(2):
    call()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    call()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(not _is_glibc(), reason="glibc's adaptive heap thresholds only")
def test_warm_extract_and_predict_calls_fault_in_no_fresh_pages():
    # Without the 4 MiB block freed at import, glibc trims each call's few MB
    # of temporaries and the next call faults them in again (about 900-1,200
    # faults a call on a 2-core Xeon).
    done = _python(_WARM_FAULTS)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.split()[-1]) <= 32
