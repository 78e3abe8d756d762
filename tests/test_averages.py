"""Sphere averaging: closed forms, Monte Carlo agreement, crossovers, fig1 data."""

import math
import tracemalloc
from decimal import Decimal, localcontext
from functools import partial

import numpy as np
import pytest

from commutator_bounds import (
    BOUND_NAMES,
    MCEstimate,
    Moments,
    NumericalConsistencyError,
    averaged_bounds_qubit,
    crossover_purities,
    fig1_rows,
    fig2_rows,
    merge_moments,
    monte_carlo_qubit_average,
    qubit_bound_samples,
    sample_unit_vectors,
    sphere_moment_check,
)
from commutator_bounds._parallel import Stream, task_rng
from commutator_bounds.averages import (
    CHUNK_ENTRIES,
    CHUNK_ROWS,
    MC_BATCH,
    _qubit_averages,
    chunk_moments,
    chunk_rows,
)
from commutator_bounds.bounds import qubit_closed_form_batch
from commutator_bounds.mub import mub_samples

SEED = 20240904


def fifty_digit_averages(purity: float) -> list[Decimal]:
    """The five averaged qubit bounds at the float ``purity``, exactly as given, evaluated
    to 50 digits in their defining forms, in ``BOUND_NAMES`` order."""
    with localcontext() as ctx:
        ctx.prec = 50
        p = Decimal(purity)
        root = (2 * p - 1).sqrt()
        robertson = 2 * (2 * p - 1) / 9
        return [
            robertson,
            robertson + 2 * (2 * p * p - 4 * p + 3) / 9,
            robertson + Decimal(4) / 9 * ((1 - p) + (2 * (1 - p)).sqrt()) ** 2,
            Decimal(4) / 3 * (p - root) / (1 + root),
            Decimal(4) / 3 * (1 - p),
        ]


def ulps(got: float, exact: Decimal) -> float:
    """|got - exact| in units in the last place of ``exact`` rounded to a float."""
    return float(abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact))))


class TestClosedForms:
    def test_maximally_mixed_values(self):
        av = averaged_bounds_qubit(0.5)
        assert (av.robertson, av.schrodinger, av.luo_park) == pytest.approx((0.0, 1 / 3, 1.0))
        assert (av.bound1, av.bound2) == pytest.approx((2 / 3, 2 / 3))

    def test_pure_values(self):
        av = averaged_bounds_qubit(1.0)
        assert (av.robertson, av.schrodinger, av.luo_park) == pytest.approx((2 / 9, 4 / 9, 2 / 9))
        assert (av.bound1, av.bound2) == pytest.approx((0.0, 0.0))

    def test_robertson_crossover_point(self):
        av = averaged_bounds_qubit(7 / 8)
        assert av.robertson == pytest.approx(av.bound2, abs=1e-15)
        assert av.robertson == pytest.approx(1 / 6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            averaged_bounds_qubit(0.4)
        with pytest.raises(ValueError):
            averaged_bounds_qubit(1.1)

    def test_bound1_below_bound2_on_grid(self):
        grid = np.linspace(0.5, 1.0, 10_000)
        for p in grid:
            av = averaged_bounds_qubit(float(p))
            assert av.bound1 <= av.bound2 + 1e-15


class TestOctahedronCubature:
    """Each qubit bound column is a polynomial of degree at most 2 in each unit axis, and the
    octahedron +-e_k is a spherical 3-design, so the mean over its 36 axis pairs is the pair
    average itself, up to round-off."""

    def test_octahedron_pairs_average_to_the_closed_forms(self):
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        a, b = np.repeat(axes, 6, axis=0), np.tile(axes, (6, 1))
        grid = np.linspace(0.5, 1.0, 201)
        for purity, want in zip(grid, _qubit_averages(grid)):
            r = math.sqrt(2.0 * purity - 1.0)
            # the Bloch vector qubit_bound_samples gives the state
            cols = qubit_closed_form_batch(a, b, np.array([0.0, 0.0, r]))
            got = [cols[name].mean() for name in BOUND_NAMES]
            # The axes are exact, so a sample's round-off is that of r and of at most 16 steps
            # after it, amplified by at most 1/(1 - r) where 1 - r and 1 - r^2 cancel (both
            # are exactly 0 at r = 1); the mean adds a sum of 36.
            amplified = 16.0 / (1.0 - r) if r < 1.0 else 0.0
            rtol = (36.0 + amplified) * np.finfo(float).eps
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0, err_msg=f"P = {purity}")


class TestMonteCarlo:
    @pytest.mark.parametrize("purity", [0.5, 0.6, 0.75, 0.9, 1.0])
    def test_matches_closed_forms_within_4_sigma(self, purity):
        estimates = monte_carlo_qubit_average(purity, 100_000, SEED)
        targets = averaged_bounds_qubit(purity).as_array()
        for name, est, target in zip(BOUND_NAMES, estimates, targets):
            assert abs(est.z_score(target)) < 4.0, (name, purity, est, target)

    def test_pure_state_new_bounds_exactly_zero(self):
        estimates = monte_carlo_qubit_average(1.0, 1000, SEED + 1)
        assert estimates[3].mean == 0.0 and estimates[3].std_error == 0.0
        assert estimates[4].mean == 0.0 and estimates[4].std_error == 0.0

    def test_minimum_sample_count_enforced(self):
        with pytest.raises(ValueError):
            monte_carlo_qubit_average(0.75, 999, 0)

    def test_chunking_does_not_change_moments(self):
        rng_a = np.random.default_rng(SEED + 2)
        values = qubit_bound_samples(0.8, 4096, rng_a)
        whole = Moments.of(values)
        split = merge_moments([Moments.of(values[:1000]), Moments.of(values[1000:])])
        np.testing.assert_allclose(whole.total, split.total, rtol=1e-12)
        assert whole.count == split.count

    def test_round_off_variance_of_a_constant_column_is_zero(self):
        moments = Moments.of(np.full((7, 1), 0.7))
        assert moments.total_sq[0] - 7 * (moments.total[0] / 7) ** 2 < 0.0  # round-off
        (est,) = moments.estimates()
        assert est.std_error == 0.0

    def test_negative_variance_beyond_round_off_raises(self):
        total_sq = 10.0 / (1.0 + 1e-9)  # sum of squares - n mean^2 = -1e-9 total_sq
        moments = Moments(count=10, total=np.array([10.0]), total_sq=np.array([total_sq]))
        with pytest.raises(NumericalConsistencyError, match="sample variance is negative"):
            moments.estimates()

    def test_estimate_needs_two_samples(self):
        with pytest.raises(ValueError):
            Moments.of(np.ones((1, 2))).estimates()

    def test_z_score_conventions(self):
        est = MCEstimate(mean=1.0, std_error=0.0, samples=10)
        assert est.z_score(1.0) == 0.0
        assert est.z_score(0.9) == np.inf


class TestTableLayout:
    """The samplers hand ``Moments.of`` column-major tables, whose columns it sums along
    memory; the values are those of the row-major ``np.column_stack`` they replaced."""

    def test_qubit_table_is_column_major(self):
        got = qubit_bound_samples(0.8, 1000, np.random.default_rng(SEED + 7))
        rng = np.random.default_rng(SEED + 7)
        a = sample_unit_vectors(3, 1000, rng)
        b = sample_unit_vectors(3, 1000, rng)
        cols = qubit_closed_form_batch(a, b, np.array([0.0, 0.0, math.sqrt(2.0 * 0.8 - 1.0)]))
        assert got.flags.f_contiguous
        np.testing.assert_array_equal(got, np.column_stack([cols[name] for name in BOUND_NAMES]))

    @pytest.mark.parametrize("sampler", ["mub", "qubit"])
    def test_moments_of_either_layout_agree(self, sampler):
        rng = np.random.default_rng(SEED + 8)
        if sampler == "mub":
            table = mub_samples(rng.dirichlet(np.ones(4)), CHUNK_ROWS, rng)
        else:
            table = qubit_bound_samples(0.8, CHUNK_ROWS, rng)
        rows = np.ascontiguousarray(table)
        assert table.flags.f_contiguous and rows.flags.c_contiguous
        # nonnegative columns summed in two orders: within (n - 1) u of each other each
        tol = CHUNK_ROWS * np.finfo(float).eps
        got, want = Moments.of(table), Moments.of(rows)
        assert got.count == want.count == CHUNK_ROWS
        np.testing.assert_allclose(got.total, want.total, rtol=tol, atol=0.0)
        np.testing.assert_allclose(got.total_sq, want.total_sq, rtol=tol, atol=0.0)


class TestChunkMemory:
    """One task of ``MC_BATCH`` samples is drawn and reduced ``chunk_rows(entries)`` rows
    at a time, so its peak allocation does not grow with the batch or with the dimension."""

    @staticmethod
    def peak_mib(sample, entries) -> float:
        chunk_moments(sample, entries, SEED, Stream.MC_MUB, (0, 100))  # first-call allocations
        tracemalloc.start()
        try:
            chunk_moments(sample, entries, SEED, Stream.MC_MUB, (0, MC_BATCH))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("dim", [4, 16, 32, 64])
    def test_mub_task_peak(self, dim):
        assert self.peak_mib(partial(mub_samples, np.full(dim, 1.0 / dim)), 2 * dim) < 8.0

    def test_qubit_task_peak(self):
        assert self.peak_mib(partial(qubit_bound_samples, 0.75), len(BOUND_NAMES)) < 2.0

    def test_chunk_rows(self):
        # every Monte Carlo sampler at d <= 4 keeps CHUNK_ROWS rows, so no pin moves there
        assert [chunk_rows(d * d) for d in (2, 3, 4)] == [4096] * 3
        assert chunk_rows(16 * 16) == 256  # the compare task size at d = 16
        assert [chunk_rows(2 * d) for d in range(2, 9)] == [4096] * 7
        assert chunk_rows(2 * 64) == 512
        assert chunk_rows(1 << 20) == 1 and chunk_rows(1) == CHUNK_ROWS

    def test_sub_batches_come_in_order_from_one_stream(self):
        calls = []

        def sample(count, rng):
            calls.append(count)
            return rng.standard_normal((count, 2))

        got = chunk_moments(sample, 2, SEED, Stream.MC_MUB, (3, 2 * CHUNK_ROWS + 5))
        assert calls == [CHUNK_ROWS, CHUNK_ROWS, 5]
        whole = Moments.of(task_rng(SEED, Stream.MC_MUB, 3).standard_normal((sum(calls), 2)))
        assert got.count == sum(calls)
        np.testing.assert_allclose(got.total, whole.total, rtol=1e-12)


class TestPhaseTableMemory:
    """Above d = 64 a ``mub_samples`` task's peak is set by the (2(d - 1), d) cosine and sine
    table of ``_circulant_sums``, which each sub-batch rebuilds, not by its rows."""

    def test_peak_at_d_256_is_bounded_by_the_table(self):
        d = 256
        sample = partial(mub_samples, np.full(d, 1.0 / d))
        count = 8 * chunk_rows(2 * d)  # eight sub-batches: the peak is one sub-batch's
        chunk_moments(sample, 2 * d, SEED, Stream.MC_MUB, (0, 100))  # first-call allocations
        tracemalloc.start()
        try:
            chunk_moments(sample, 2 * d, SEED, Stream.MC_MUB, (0, count))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = 2 * (d - 1) * d * 8
        # The build holds at most 2.5 tables at once (the angles, their cosines and sines,
        # the concatenation and its scaled copy); the rows of a sub-batch hold under four
        # float tables of CHUNK_ENTRIES entries.  That is 5.0 MiB; 4.0 MiB was measured.
        assert peak < 3 * table + 4 * CHUNK_ENTRIES * 8


class TestCrossovers:
    def test_robertson_crossover_exact(self):
        p_r, _ = crossover_purities()
        assert abs(p_r - 0.875) < 1e-12

    def test_schrodinger_crossover(self):
        _, p_s = crossover_purities()
        assert abs(p_s - (np.sqrt(3.0) - 1.0)) < 1e-9

    def test_root_consistency(self):
        p_r, p_s = crossover_purities()
        av = averaged_bounds_qubit(p_r)
        assert abs(av.robertson - av.bound2) < 1e-12
        av = averaged_bounds_qubit(p_s)
        assert abs(av.schrodinger - av.bound2) < 1e-11

    def test_closed_forms_match_bisection(self):
        # reference roots: bisection on the averaged-bound differences over [1/2, 1]
        from scipy.optimize import bisect

        def against(name):
            def difference(p):
                av = averaged_bounds_qubit(p)
                return getattr(av, name) - av.bound2

            return difference

        p_r = bisect(against("robertson"), 0.5, 1.0, xtol=1e-13)
        p_s = bisect(against("schrodinger"), 0.5, 1.0, xtol=1e-13)
        closed_r, closed_s = crossover_purities()
        assert abs(closed_r - p_r) < 1e-12
        assert abs(closed_s - p_s) < 1e-12


class TestSphereMoments:
    def test_second_moments_d3(self):
        result = sphere_moment_check(3, 100_000, SEED + 3)
        target = np.eye(3) / 3.0
        # off-diagonal targets are 0, diagonal 1/d, all within 5 standard errors
        assert np.all(np.abs(result.mean - target) <= 5.0 * result.std_error + 1e-12)

    def test_unit_norm_is_exact_per_sample(self):
        result = sphere_moment_check(2, 10_000, SEED + 4)
        assert np.trace(result.mean) == pytest.approx(1.0, abs=1e-12)

    def test_exact_estimates_across_chunks(self):
        # 300_007 samples are four full batches and a ragged fifth, from task_rng(8, tag, i).
        # Re-recorded when each batch came to be drawn and reduced 4096 samples at a time:
        # the draws are the same, as the sampler draws once per call, but the sums are
        # taken in another order: the means moved by at most 1.5e-15 (4.3e-15 relative on
        # the diagonal) and the standard errors by at most 4e-15 relative.  Re-recorded
        # when unit vectors came to be drawn level-major, (dim, count): each vector is a
        # new draw from the same law, and the largest |mean - delta/3| / se went from
        # 2.10 to 2.39
        result = sphere_moment_check(3, 300_007, 8)
        assert result.samples == 300_007
        mean = [
            [0.3333787892738584, -0.0002420875426720715, -0.0005148179585337483],
            [-0.0002420875426720715, 0.3327968623097816, 0.0011266945638169926],
            [-0.0005148179585337483, 0.0011266945638169926, 0.33382434841635994],
        ]
        se = [
            [0.0005444090063853157, 0.0004706716551930374, 0.000472083014837748],
            [0.0004706716551930374, 0.0005441275766324446, 0.0004717179734985488],
            [0.000472083014837748, 0.0004717179734985488, 0.0005439534444637845],
        ]
        np.testing.assert_array_equal(result.mean, mean)
        np.testing.assert_array_equal(result.std_error, se)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sphere_moment_check(1, 10_000, 0)
        with pytest.raises(ValueError):
            sphere_moment_check(3, 100, 0)

    def test_one_sample_short_of_the_minimum_names_it(self):
        with pytest.raises(ValueError, match="need at least 10000 samples, got 9999"):
            sphere_moment_check(3, 9_999, 0)


class TestFig1Rows:
    def test_endpoints_match_closed_forms(self):
        rows = fig1_rows(3)
        np.testing.assert_allclose(rows[0], [0.5, 0.0, 1 / 3, 1.0, 2 / 3, 2 / 3], atol=1e-14)
        np.testing.assert_allclose(rows[-1], [1.0, 2 / 9, 4 / 9, 2 / 9, 0.0, 0.0], atol=1e-14)

    def test_grid_ordering_and_monotonicity(self):
        rows = fig1_rows(101)
        purity, robertson, schrodinger, luo_park, bound1, bound2 = rows.T
        assert np.all(np.diff(purity) > 0)
        assert np.all(np.diff(robertson) > 0)  # increasing in purity
        assert np.all(np.diff(bound2) < 0)  # decreasing in purity
        assert np.all(luo_park >= bound2 - 1e-12)
        assert np.all(bound2 >= bound1 - 1e-12)
        assert np.all(schrodinger >= robertson - 1e-15)

    def test_point_count_validated(self):
        for rows in (fig1_rows, fig2_rows):
            with pytest.raises(ValueError, match="need at least 2 grid points"):
                rows(1)

    def test_rows_are_averaged_bounds_qubit(self):
        rows = fig1_rows(2001)
        np.testing.assert_array_equal(rows[:, 0], np.linspace(0.5, 1.0, 2001))
        singles = np.array([averaged_bounds_qubit(p).as_array() for p in rows[:, 0]])
        np.testing.assert_array_equal(rows[:, 1:], singles)

    def test_within_8_ulp_of_50_digits(self):
        # bound1's defining form 4/3 (p - r)/(1 + r) cancels near p = 1; the table must not
        rows = fig1_rows(2001)
        worst = dict.fromkeys(BOUND_NAMES, 0.0)
        for row in rows:
            for name, got, exact in zip(BOUND_NAMES, row[1:], fifty_digit_averages(row[0])):
                worst[name] = max(worst[name], ulps(got, exact))
        assert all(w <= 8.0 for w in worst.values()), worst
