"""fork_map: a task list split between the calling process and children forked for
one call, which inherit the function and its tasks through the fork and send their
results back pickled through a pipe. Below it, all that slummap does to the C heap."""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
from collections.abc import Callable, Iterable


def _child(fn: Callable, share: list[tuple], write_end: int) -> None:
    """Write share's pickled (True, results), or (False, its exception), and exit."""
    try:
        try:
            payload = pickle.dumps((True, [fn(*task) for task in share]), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            try:
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                pickle.loads(payload)  # an exception can pickle and still fail to load
            except Exception:
                error = RuntimeError(f"a worker raised {exc!r}, which cannot be pickled")
                payload = pickle.dumps((False, error))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        os._exit(0)
    finally:
        os._exit(1)  # never return into the caller's stack


def fork_map(fn: Callable, tasks: list[tuple], jobs: int = 1) -> Iterable:
    """``fn(*task)`` for every task, in task order.

    n tasks make k = min(jobs, n) shares, task i going to share i % k. With
    one share the result is a lazy generator, so one result is held at a
    time, and nothing is forked. Otherwise k - 1 children are forked now,
    one per share but the last, the caller computes the last share, which is
    the smallest (a caller may already hold work of its own), and the list of
    results is returned. Whether to fork at all is the caller's choice:
    ``jobs`` only caps the processes. Each task is a pure function of its
    arguments, so results do not depend on ``jobs``. A child's exception is
    raised in the caller. Every child is reaped before the call returns or
    raises, and killed first if the caller's share raises or the caller is
    interrupted while it waits.
    """
    k = max(1, min(jobs, len(tasks)))
    if k == 1:
        return (fn(*task) for task in tasks)
    pids, pipes = [], []
    try:
        for s in range(k - 1):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, tasks[s::k], write_end)
            finally:
                os.close(write_end)
            pids.append(pid)
        results = [None] * len(tasks)
        results[k - 1 :: k] = [fn(*task) for task in tasks[k - 1 :: k]]
        payloads = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for s, payload, status in zip(range(k - 1), payloads, statuses):
        if status != 0 or not payload:
            raise RuntimeError(f"a worker ended with exit status {status} and no result")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        results[s::k] = value
    return results


def _glibc_heap():
    """glibc's malloc_trim, or None elsewhere, once one 4 MiB block is freed:
    glibc then starts its mmap and trim thresholds at 4 and 8 MiB, above a
    warm 64² operation's 3-5 MB of temporaries, which would otherwise be
    trimmed and faulted in again on every call (2 MiB was the least that left
    perfbench predict-glcm no faults; 4 MiB doubles the margin)."""
    try:
        libc = ctypes.CDLL(None)
        trim, malloc, free = libc.malloc_trim, libc.malloc, libc.free
    except (OSError, TypeError, AttributeError):
        return None
    malloc.argtypes, malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
    free.argtypes, trim.argtypes = [ctypes.c_void_p], [ctypes.c_size_t]
    free(malloc(4 << 20))
    return trim


_MALLOC_TRIM = _glibc_heap()


def release_free_heap() -> None:
    """Trim the C heap (glibc only), so freed node gathers miss the map stage's peak."""
    if _MALLOC_TRIM:
        _MALLOC_TRIM(0)
