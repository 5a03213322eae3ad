"""Split task lists between the calling process and one forked worker pool.

A run forks one pool and hands it to each parallel stage. The calling
process counts as one of the pool's ``size`` processes. A list of n tasks
makes k = min(size, n) shares, task i going to share i % k: the caller
computes share 0 itself while each of k - 1 forked workers computes one
other share, and the results come back in task order. Each task is a pure
function of its arguments, so results do not depend on ``size``.
"""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context


def _run_share(fn, tasks: list[tuple]) -> list:
    return [fn(*task) for task in tasks]


class TaskPool:
    """The calling process plus ``size - 1`` forked workers.

    ``size`` is ``jobs`` capped at ``longest``, the length of the longest task
    list the pool will be given, so no worker is forked that no list can
    feed. Use it as a context manager: leaving the block joins the workers.
    """

    def __init__(self, jobs: int = 1, longest: int = 1):
        self.size = max(1, min(jobs, longest))
        # Fork, not spawn: a spawned worker re-imports numpy, which costs more
        # than a 64x64 run, and fails when the caller's __main__ has no guard.
        self._executor = (
            ProcessPoolExecutor(max_workers=self.size - 1, mp_context=get_context("fork"))
            if self.size > 1
            else None
        )

    def map(self, fn, tasks: list[tuple]) -> Iterator:
        """Yield ``fn(*task)`` for every task, in task order, one share per process.

        With more than one share, the caller computes its own share before it
        reads the workers' results; alone, it computes each task as the
        result is consumed, so only one result is held at a time.
        """
        shares = max(1, min(self.size, len(tasks)))
        if shares == 1:
            for task in tasks:
                yield fn(*task)
            return
        futures = [
            self._executor.submit(_run_share, fn, tasks[s::shares]) for s in range(1, shares)
        ]
        results = [None] * len(tasks)
        try:
            results[::shares] = _run_share(fn, tasks[::shares])
        finally:
            # Read every future, so a worker's exception reaches the caller.
            chunks = [future.result() for future in futures]
        for s, chunk in enumerate(chunks, 1):
            results[s::shares] = chunk
        yield from results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()

    def __enter__(self) -> "TaskPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
