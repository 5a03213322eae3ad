"""fork_map: a task list split between the calling process and children
forked for one call, which inherit the function and its tasks through the
fork and send their results back pickled through a pipe."""

from __future__ import annotations

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
    time. Otherwise k - 1 children are forked now, one per share past the
    first, the caller computes share 0, and the list of results is returned.
    Each task is a pure function of its arguments, so results do not depend on
    ``jobs``. A child's exception is raised in the caller. Every child is
    reaped before the call returns or raises, and killed first if the
    caller's share raises or the caller is interrupted while it waits.
    """
    k = max(1, min(jobs, len(tasks)))
    if k == 1:
        return (fn(*task) for task in tasks)
    pids, pipes = [], []
    try:
        for s in range(1, k):
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
        results[::k] = [fn(*task) for task in tasks[::k]]
        payloads = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for s, payload, status in zip(range(1, k), payloads, statuses):
        if status != 0 or not payload:
            raise RuntimeError(f"a worker ended with exit status {status} and no result")
        ok, value = pickle.loads(payload)
        if not ok:
            raise value
        results[s::k] = value
    return results
