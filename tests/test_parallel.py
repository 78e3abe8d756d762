"""Seed streams and ordered parallel mapping: integer seeds, distinct stream tags, task
order, a bounded window, failures and early close."""

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


class CountingPool:
    """In-process stand-in for ProcessPoolExecutor.

    Runs each task when it is submitted and counts the futures whose result
    has not been taken yet, which is what ``map_ordered`` holds in flight.
    """

    last = None

    def __init__(self, max_workers):
        self.max_workers = max_workers
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
    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", CountingPool)
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
