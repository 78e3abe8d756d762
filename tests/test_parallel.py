"""Seed streams and ordered parallel mapping: integer seeds, distinct stream tags, task
order, a bounded window, failures and early close, and each worker's BLAS threads."""

import ctypes
import os
import types
from concurrent.futures import Future

import numpy as np
import pytest

from commutator_bounds import _parallel, mc_mub_average, monte_carlo_qubit_average
from commutator_bounds import sphere_moment_check
from commutator_bounds._parallel import Stream, map_ordered, task_rng


def _square(x):
    return x * x


def _square_unless_7(x):
    if x == 7:
        raise ValueError("task 7 failed")
    return x * x


def _blas_threads(_task):
    """The OpenBLAS thread variable and numpy's OpenBLAS thread count in this process."""
    from numpy._core import _multiarray_umath

    count = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    count.restype = ctypes.c_int
    return os.environ.get("OPENBLAS_NUM_THREADS"), count()


class CountingPool:
    """In-process stand-in for ProcessPoolExecutor.

    Runs each task when it is submitted and counts the futures whose result
    has not been taken yet, which is what ``map_ordered`` holds in flight.
    """

    last = None

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.max_workers = max_workers
        if initializer is not None:
            initializer(*initargs)
        self.outstanding = 0
        self.peak = 0
        self.submitted = 0
        self.shutdown_args = None
        CountingPool.last = self

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as err:
            future.set_exception(err)
        self.submitted += 1
        self.outstanding += 1
        self.peak = max(self.peak, self.outstanding)
        take = future.result

        def result(timeout=None):
            self.outstanding -= 1
            return take(timeout)

        future.result = result
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdown_args = (wait, cancel_futures)


@pytest.fixture
def counting_pool(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
    # the pool runs its initializer in this process, whose BLAS threads it must not set
    CountingPool.shares = []
    monkeypatch.setattr(_parallel, "_share_blas_threads", CountingPool.shares.append)
    return CountingPool


@pytest.mark.parametrize("workers", [1, 2])
def test_results_in_task_order(workers):
    assert list(map_ordered(_square, range(23), workers)) == [x * x for x in range(23)]


def test_serial_map_yields_as_it_maps():
    seen = []

    def record(x):
        seen.append(x)
        return x

    results = map_ordered(record, range(5), 1)
    assert next(results) == 0 and seen == [0]
    assert next(results) == 1 and seen == [0, 1]


@pytest.mark.parametrize("workers", [2, 3])
def test_window_holds_at_most_two_tasks_per_worker(counting_pool, workers):
    assert list(map_ordered(_square, range(40), workers)) == [x * x for x in range(40)]
    pool = counting_pool.last
    assert pool.max_workers == workers
    assert pool.submitted == 40
    assert pool.peak == 2 * workers
    assert pool.outstanding == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_task_raises_at_its_index(workers):
    got = []
    with pytest.raises(ValueError, match="task 7 failed"):
        for result in map_ordered(_square_unless_7, range(12), workers):
            got.append(result)
    assert got == [x * x for x in range(7)]


def test_failing_task_shuts_the_pool_down(counting_pool):
    with pytest.raises(ValueError):
        list(map_ordered(_square_unless_7, range(12), 2))
    assert counting_pool.last.shutdown_args == (True, True)


def test_closing_early_shuts_the_pool_down(counting_pool):
    results = map_ordered(_square, range(40), 2)
    assert [next(results) for _ in range(3)] == [0, 1, 4]
    pool = counting_pool.last
    assert pool.shutdown_args is None
    results.close()
    assert pool.shutdown_args == (True, True)
    assert pool.submitted < 40


@pytest.mark.parametrize("workers, tasks, share", [(2, 40, 4), (3, 40, 2), (16, 40, 1), (4, 2, 4)])
def test_pool_initializer_gets_each_worker_its_share(counting_pool, monkeypatch, workers,
                                                     tasks, share):
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 8)
    list(map_ordered(_square, range(tasks), workers))
    assert counting_pool.shares == [share]  # 8 CPUs over the pool's min(workers, tasks)


def _without_thread_variables(monkeypatch):
    for name in _parallel.BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)


def test_workers_take_their_share_when_no_thread_variable_is_set(monkeypatch):
    # forked workers inherit this environment and the patched CPU count; 4 threads each
    # is more than this machine may have, which OpenBLAS allows and a count can show
    _without_thread_variables(monkeypatch)
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 8)
    assert set(map_ordered(_blas_threads, range(4), 2)) == {("4", 4)}


def test_a_thread_variable_set_by_the_caller_wins(monkeypatch):
    _without_thread_variables(monkeypatch)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setattr(_parallel, "usable_cpus", lambda: 8)
    here = _blas_threads(None)[1]
    assert set(map_ordered(_blas_threads, range(4), 2)) == {(None, here)}


def test_a_numpy_without_the_thread_symbol_is_skipped(monkeypatch):
    monkeypatch.setattr(os, "environ", {})  # the initializer writes the variable here
    monkeypatch.setattr(ctypes, "CDLL", lambda path: types.SimpleNamespace())
    _parallel._share_blas_threads(3)
    assert os.environ == {"OPENBLAS_NUM_THREADS": "3"}


@pytest.mark.parametrize(
    "seed", [3.7, 3.0, np.random.default_rng(3)], ids=["float", "whole-float", "generator"]
)
def test_seed_must_be_an_integer(seed):
    with pytest.raises(TypeError):
        task_rng(seed, Stream.COMPARE)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda seed: monte_carlo_qubit_average(0.75, 1000, seed),
        lambda seed: mc_mub_average(2, [0.5, 0.5], 10_000, seed),
        lambda seed: sphere_moment_check(2, 10_000, seed),
    ],
    ids=["qubit", "mub", "sphere"],
)
def test_estimators_take_an_integer_seed(estimate):
    estimate(np.int64(5))
    for seed in (5.0, np.random.default_rng(5)):
        with pytest.raises(TypeError):
            estimate(seed)


def test_integer_types_key_the_same_stream():
    want = task_rng(3, 1, 5).standard_normal(4).tolist()
    assert task_rng(np.int64(3), Stream.COMPARE, np.int32(5)).standard_normal(4).tolist() == want


def test_stream_tags_are_distinct():
    # an IntEnum member given a used value would silently become an alias of it
    assert len({int(tag) for tag in Stream}) == len(Stream.__members__)


def test_empty_reduction_raises():
    with pytest.raises(ValueError, match="cannot reduce an empty sequence"):
        _parallel.pairwise_reduce([], lambda x, y: x + y)
