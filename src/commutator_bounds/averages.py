"""Sphere-averaged qubit bounds: closed forms, Monte Carlo estimators, crossovers.

Averaging is over independent uniform unit axes for both observables.  The
pair average depends on the state only through its purity (the average is
invariant under simultaneous rotations), so Monte Carlo fixes the state
direction along z without bias.

Every Monte Carlo average here, in ``mub`` and in the CLI, merges in order batch i of
:data:`MC_BATCH` samples drawn from ``task_rng(seed, tag, i)`` (:func:`seeded_moments`),
so an estimator and ``cbounds mc-average`` with the same seed agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._parallel import Stream, pairwise_reduce, task_rng
from .bounds import BOUND_NAMES, qubit_closed_form_batch
from .linalg import checked_dim, nonnegative
from .states import sample_unit_vectors

FIG1_HEADER = ",".join(("purity", *BOUND_NAMES))

MC_BATCH = 1 << 16
MIN_QUBIT_SAMPLES = 1000
MIN_MOMENT_SAMPLES = 10_000


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error (sample stdev / sqrt(n))."""

    mean: float
    std_error: float
    samples: int

    def z_score(self, target: float) -> float:
        """Studentized deviation from ``target``; infinite when SE is 0 and the mean differs."""
        diff = self.mean - target
        if self.std_error == 0.0:
            return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        return diff / self.std_error


@dataclass(frozen=True)
class Moments:
    """Running (count, sum, sum of squares) per column; mergeable."""

    count: int
    total: np.ndarray
    total_sq: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray) -> "Moments":
        values = np.atleast_2d(values)
        return cls(
            count=values.shape[0],
            total=values.sum(axis=0),
            total_sq=(values**2).sum(axis=0),
        )

    def merge(self, other: "Moments") -> "Moments":
        return Moments(
            count=self.count + other.count,
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
        )

    def estimates(self) -> tuple[MCEstimate, ...]:
        if self.count < 2:
            raise ValueError("need at least 2 samples for a standard error")
        mean = self.total / self.count
        sq_dev = self.total_sq - self.count * mean**2
        var = nonnegative(sq_dev, "sample variance", scale=float(self.total_sq.max()))
        se = np.sqrt(var / (self.count - 1) / self.count)
        return tuple(
            MCEstimate(mean=float(m), std_error=float(s), samples=self.count)
            for m, s in zip(mean, se)
        )


def merge_moments(parts: list[Moments]) -> Moments:
    return pairwise_reduce(parts, lambda x, y: x.merge(y))


def chunk_plan(total: int, size: int) -> list[tuple[int, int]]:
    """(index, count) of the consecutive chunks of at most ``size`` that make up ``total``."""
    return [(index, min(size, total - start)) for index, start in enumerate(range(0, total, size))]


def chunk_moments(sample, seed: int, tag: Stream, chunk: tuple[int, int]) -> Moments:
    """Moments of one chunk: ``sample(count, task_rng(seed, tag, index))``, a (count, k) array."""
    index, count = chunk
    return Moments.of(sample(count, task_rng(seed, tag, index)))


def seeded_moments(sample, total: int, seed: int, tag: Stream) -> Moments:
    """Moments of ``total`` draws of ``sample`` in :data:`MC_BATCH` chunks, merged in order."""
    chunks = chunk_plan(total, MC_BATCH)
    return merge_moments([chunk_moments(sample, seed, tag, chunk) for chunk in chunks])


def checked_purity(purity: float) -> float:
    """``purity`` clamped to [1/2, 1]; ValueError unless it lies there up to round-off."""
    p = float(purity)
    if not (0.5 - 1e-12 <= p <= 1.0 + 1e-12):
        raise ValueError(f"purity must lie in [1/2, 1], got {p!r}")
    return min(max(p, 0.5), 1.0)


@dataclass(frozen=True)
class AveragedBounds:
    """The five bounds averaged over all unit observable axes, at fixed purity."""

    purity: float
    robertson: float
    schrodinger: float
    luo_park: float
    bound1: float
    bound2: float

    def as_array(self) -> np.ndarray:
        """The five bounds in ``BOUND_NAMES`` order."""
        return np.array([getattr(self, name) for name in BOUND_NAMES])


def _qubit_averages(p: np.ndarray) -> np.ndarray:
    """The (len(p), 5) averaged qubit bounds at purities ``p``, in ``BOUND_NAMES`` order."""
    robertson = 2.0 * (2.0 * p - 1.0) / 9.0
    schrodinger = robertson + 2.0 * (2.0 * p * p - 4.0 * p + 3.0) / 9.0
    luo_park = robertson + 4.0 / 9.0 * ((1.0 - p) + np.sqrt(2.0 * (1.0 - p))) ** 2
    root = np.sqrt(2.0 * p - 1.0)
    # 4/3 (p - root)/(1 + root), as 2 (p - root) = (1 - root)^2 = (2 (1 - p)/(1 + root))^2
    bound1 = 4.0 / 3.0 * (1.0 - p) ** 2 / ((p + root) * (1.0 + root))
    bound2 = 4.0 / 3.0 * (1.0 - p)
    return np.column_stack([robertson, schrodinger, luo_park, bound1, bound2])


def averaged_bounds_qubit(purity: float) -> AveragedBounds:
    """Closed-form pair-averaged qubit bounds at one purity in [1/2, 1]: one row of the
    formula :func:`fig1_rows` evaluates over its whole grid."""
    p = checked_purity(purity)
    return AveragedBounds(p, *_qubit_averages(np.array([p]))[0].tolist())


def qubit_bound_samples(purity: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 5) per-sample bound values for independent uniform axis pairs.

    Column order follows ``BOUND_NAMES``.  The state is the purity-matching
    Bloch vector along z.
    """
    p = checked_purity(purity)
    c = np.array([0.0, 0.0, math.sqrt(2.0 * p - 1.0)])
    a = sample_unit_vectors(3, count, rng)
    b = sample_unit_vectors(3, count, rng)
    cols = qubit_closed_form_batch(a, b, c)
    return np.column_stack([cols[name] for name in BOUND_NAMES])


def monte_carlo_qubit_average(purity: float, samples: int, seed: int) -> tuple[MCEstimate, ...]:
    """Monte Carlo estimate of the pair-averaged qubit bounds at one purity.

    Returns five estimates in ``BOUND_NAMES`` order; each mean matches
    :func:`averaged_bounds_qubit` within a few standard errors; ``mc-average --purity`` prints them.
    """
    if samples < MIN_QUBIT_SAMPLES:
        raise ValueError(f"need at least {MIN_QUBIT_SAMPLES} samples, got {samples}")
    sample = partial(qubit_bound_samples, purity)
    return seeded_moments(sample, samples, seed, Stream.MC_PURITY).estimates()


def crossover_purities() -> tuple[float, float]:
    """Purities where the conjectured averaged bound meets Robertson / Schroedinger.

    Both crossovers have closed forms.  Against Robertson,
    2(2p - 1)/9 = 4(1 - p)/3 is linear with root p = 7/8.  Against
    Schroedinger, whose average is 4(p^2 - p + 1)/9, the equation
    4(p^2 - p + 1)/9 = 4(1 - p)/3 reduces to p^2 + 2p - 2 = 0, whose root in
    [1/2, 1] is p = sqrt(3) - 1.
    """
    return 7.0 / 8.0, math.sqrt(3.0) - 1.0


@dataclass(frozen=True)
class MomentMatrixEstimate:
    """Entrywise mean/standard-error matrices for sphere second moments."""

    mean: np.ndarray
    std_error: np.ndarray
    samples: int


def sphere_moment_check(dim: int, samples: int, seed: int) -> MomentMatrixEstimate:
    """Estimate <x_j x_k> for x uniform on the unit sphere in R^dim.

    The exact second moments are delta_jk / dim; each row of outer products
    sums to 1 exactly sample by sample.
    """
    checked_dim(dim)
    if samples < MIN_MOMENT_SAMPLES:
        raise ValueError(f"need at least {MIN_MOMENT_SAMPLES} samples, got {samples}")

    def outer_products(count: int, chunk_rng: np.random.Generator) -> np.ndarray:
        x = sample_unit_vectors(dim, count, chunk_rng)
        return np.einsum("ni,nj->nij", x, x).reshape(count, dim * dim)

    merged = seeded_moments(outer_products, samples, seed, Stream.SPHERE_MOMENTS)
    pairs = np.array([(e.mean, e.std_error) for e in merged.estimates()])
    mean, se = pairs.T.reshape(2, dim, dim)
    return MomentMatrixEstimate(mean=mean, std_error=se, samples=merged.count)


def fig1_rows(points: int) -> np.ndarray:
    """(points, 6) table of averaged bounds on a uniform purity grid over [1/2, 1].

    Columns follow ``FIG1_HEADER``; row i is the purity and
    :func:`averaged_bounds_qubit` at it, bit for bit.
    """
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    grid = np.linspace(0.5, 1.0, points)
    return np.column_stack([grid, _qubit_averages(grid)])
