"""Deterministic seed splitting, the stream tags, and ordered parallel mapping.

Task streams are Philox generators keyed on (seed, tag, *path); because the
generator is counter-based and the key never involves the worker that runs
the task, results are identical for any worker count, and byte-identical for
a fixed seed.

The process-pool machinery (``concurrent.futures.process`` and ``multiprocessing``, about
12 ms of imports) is imported inside :func:`map_ordered`, only when a pool starts, so
importing the package and every command that starts no pool skip it.  ``ctypes`` is
imported inside :func:`_share_blas_threads`, only when it sets a thread count.
"""

from __future__ import annotations

import operator
import os
from collections import deque
from enum import IntEnum
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


class Stream(IntEnum):
    """First element of every task path: one seed gives each command and estimator its own."""

    COMPARE = 1
    MC_PURITY = 2
    MC_MUB = 3
    CONJECTURE = 4
    SPHERE_MOMENTS = 5


def task_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based stream for the task addressed by ``path``, a :class:`Stream`
    first; seed and path are integers (``operator.index``), so a float raises ``TypeError``."""
    entropy = tuple(map(operator.index, (seed, *path)))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


#: The variables by which a caller sets the BLAS thread count; a pool worker that finds
#: none of them set takes its share of the CPUs (:func:`_share_blas_threads`).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one
    (so ``taskset`` and container CPU sets count), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share_blas_threads(threads: int) -> None:
    """Pool initializer: give this worker ``threads`` BLAS threads, unless the caller set
    one of :data:`BLAS_THREAD_VARS`.  Otherwise each worker's OpenBLAS would start one
    thread per CPU, and the workers together would oversubscribe the CPUs.

    numpy's OpenBLAS, the only BLAS the package loads, is loaded already and would
    ignore those variables, so it is set through its own symbol, skipped where that
    numpy has none, since the thread count changes no result.
    """
    if any(name in os.environ for name in BLAS_THREAD_VARS):
        return
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x, not built on scipy-openblas
        return
    umath = ctypes.CDLL(_multiarray_umath.__file__)
    set_threads = getattr(umath, "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(threads)


def map_ordered(fn: Callable[[T], R], tasks: Sequence[T], workers: int) -> Iterator[R]:
    """Yield ``fn(task)`` for each of ``tasks``, in task order.

    Serially (``workers`` <= 1) each result is yielded as it is computed.
    Otherwise the tasks run in a process pool, and at most 2 x ``workers`` of
    them are submitted but not yet yielded, so a caller that consumes results
    as they come holds a bounded number of them; ``fn`` and the task payloads
    must then be picklable.  Each pool worker gets an even share of the usable
    CPUs as BLAS threads (:func:`_share_blas_threads`).  Closing the iterator
    early, or a task raising, cancels the tasks not yet started and shuts the
    pool down.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor

    window = 2 * workers
    size = min(workers, len(tasks))
    pool = ProcessPoolExecutor(
        max_workers=size,
        initializer=_share_blas_threads,
        initargs=(max(1, usable_cpus() // size),),
    )
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
