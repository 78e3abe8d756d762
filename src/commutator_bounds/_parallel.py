"""Deterministic seed splitting and ordered parallel mapping.

Task streams are Philox generators keyed on (seed, *path); because the
generator is counter-based and the key never involves the worker that runs
the task, results are identical for any worker count, and byte-identical for
a fixed seed.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def task_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based stream for the task addressed by ``path``."""
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def map_ordered(fn: Callable[[T], R], tasks: Sequence[T], workers: int) -> Iterator[R]:
    """Yield ``fn(task)`` for each of ``tasks``, in task order.

    Serially (``workers`` <= 1) each result is yielded as it is computed.
    Otherwise the tasks run in a process pool, and at most 2 x ``workers`` of
    them are submitted but not yet yielded, so a caller that consumes results
    as they come holds a bounded number of them; ``fn`` and the task payloads
    must then be picklable.  Closing the iterator early, or a task raising,
    cancels the tasks not yet started and shuts the pool down.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    window = 2 * workers
    pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
    try:
        pending = deque()
        for task in tasks:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, task))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def pairwise_reduce(items: Iterable[T], combine: Callable[[T, T], T]) -> T:
    """Reduce by pairing neighbours level by level; deterministic for ordered input."""
    level = list(items)
    if not level:
        raise ValueError("cannot reduce an empty sequence")
    while len(level) > 1:
        nxt = [combine(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]
