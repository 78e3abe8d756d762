"""Mutually unbiased pairs: construction, bound formulas, averages, fig2 data."""

import math
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commutator_bounds import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    classical_uncertainty,
    commutator,
    fig2_rows,
    fourier_mub_pair,
    fourier_phases,
    mc_mub_average,
    mub_b2_average,
    mub_column_averages,
    mub_commutator_norm,
    mub_commutator_norm_average,
    mub_lp_average,
    mub_pair,
    mub_sample_columns,
    mub_vanishing_check,
    qubit_mub_theta_lp,
    qubit_spectrum_from_purity,
    sample_unit_vectors,
    variance,
    weighted_norm_sq,
)
from commutator_bounds._parallel import Stream
from commutator_bounds.averages import seeded_moments
from commutator_bounds.linalg import nonnegative
from commutator_bounds.mub import MUB_COLUMN_NAMES, _phase_tables, mub_samples
from commutator_bounds.states import checked_spectrum

SEED = 20240905


def unit_spectrum(rng, d):
    return sample_unit_vectors(d, 1, rng)[0]


class TestConstruction:
    def test_two_point_fourier_phases(self):
        pair = fourier_mub_pair(2, [1, 0], [0, 1])
        np.testing.assert_allclose(pair.phases, [[0.0, 0.0], [0.0, np.pi]], atol=1e-14)
        # computational basis vs the plus/minus basis
        u = pair.basis()
        np.testing.assert_allclose(np.abs(u), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-14)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_unbiasedness(self, d):
        rng = np.random.default_rng(SEED + d)
        pair = fourier_mub_pair(d, unit_spectrum(rng, d), unit_spectrum(rng, d))
        u = pair.basis()
        np.testing.assert_allclose(np.abs(u) ** 2, np.full((d, d), 1.0 / d), atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)

    def test_invalid_phase_table_rejected(self):
        rng = np.random.default_rng(SEED)
        phases = rng.uniform(0, 2 * np.pi, (3, 3))  # almost surely not a basis
        with pytest.raises(ValueError):
            mub_pair(3, phases, unit_spectrum(rng, 3), unit_spectrum(rng, 3))

    def test_non_unit_spectrum_rejected(self):
        with pytest.raises(ValueError, match="unit vector"):
            fourier_mub_pair(2, [1.0, 1.0], [1.0, 0.0])

    def test_nan_spectrum_rejected(self):
        with pytest.raises(ValueError, match="unit vector"):
            fourier_mub_pair(2, [np.nan, 1.0], [1.0, 0.0])


class TestVanishingBounds:
    def test_qubit_quarter_spectrum(self):
        rng = np.random.default_rng(SEED + 1)
        pair = fourier_mub_pair(2, unit_spectrum(rng, 2), unit_spectrum(rng, 2))
        robertson, schrodinger = mub_vanishing_check(pair, [0.25, 0.75])
        assert robertson < 1e-10 and schrodinger < 1e-10

    @pytest.mark.parametrize("d", [3, 5])
    def test_random_spectra(self, d):
        rng = np.random.default_rng(SEED + 2 + d)
        for _ in range(20):
            pair = fourier_mub_pair(d, unit_spectrum(rng, d), unit_spectrum(rng, d))
            lam = rng.dirichlet(np.ones(d))
            robertson, schrodinger = mub_vanishing_check(pair, lam)
            assert robertson < 1e-10 and schrodinger < 1e-10


class TestClosedFormAverages:
    def test_lp_average_values(self):
        assert mub_lp_average([0.5, 0.5]) == pytest.approx(1 / 16)
        assert mub_lp_average([0.0, 0.0, 0.0, 1.0]) == pytest.approx(0.0)

    def test_lp_average_qubit_parameterization(self):
        # ((1-r)/2, (1+r)/2) gives (1-P) sqrt(2(1-P)) / 8 with P = (1+r^2)/2
        rng = np.random.default_rng(SEED + 3)
        for r in rng.uniform(0.0, 1.0, 50):
            lam = [(1 - r) / 2, (1 + r) / 2]
            purity = (1 + r * r) / 2
            expected = (1 - purity) * np.sqrt(2 * (1 - purity)) / 8
            assert mub_lp_average(lam) == pytest.approx(expected, abs=1e-14)

    def test_b2_average_values(self):
        assert mub_b2_average([0.5, 0.5]) == pytest.approx(1 / 16)
        assert mub_b2_average([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(2 / 81)

    def test_b2_average_qubit_parameterization(self):
        rng = np.random.default_rng(SEED + 4)
        for r in rng.uniform(0.0, 1.0, 50):
            lam = [(1 - r) / 2, (1 + r) / 2]
            purity = (1 + r * r) / 2
            assert mub_b2_average(lam) == pytest.approx((1 - purity) / 8, abs=1e-14)
            assert mub_b2_average(lam) >= mub_lp_average(lam) - 1e-15

    @pytest.mark.parametrize(
        "lams",
        [[-0.5, 1.5], [0.7, 0.7], [np.nan, 1.0], [0.5, np.inf], [[0.5, 0.5]]],
        ids=["negative", "trace", "nan", "inf", "2-d"],
    )
    def test_spectrum_that_is_no_state_rejected(self, lams):
        for average in (mub_lp_average, mub_b2_average):
            with pytest.raises(InvalidStateError):
                average(lams)

    def test_one_entry_spectrum_rejected(self):
        for average in (mub_lp_average, mub_b2_average):
            with pytest.raises(ValueError, match="dimension must be >= 2"):
                average([1.0])

    def test_roundoff_negative_reads_as_zero(self):
        lam = [-1e-13, 1.0 + 1e-13]
        assert mub_lp_average(lam) == pytest.approx(0.0, abs=1e-12)
        assert mub_b2_average(lam) == pytest.approx(0.0, abs=1e-12)

    def test_comm_norm_average_table(self):
        assert mub_commutator_norm_average(2) == pytest.approx(1 / 4)
        assert mub_commutator_norm_average(3) == pytest.approx(4 / 27)
        assert mub_commutator_norm_average(4) == pytest.approx(3 / 32)


def former_cli_targets(lams) -> tuple:
    """The four mc-average --mub targets as the CLI wrote them inline, on the spectrum it
    had checked, before they moved into ``mub_column_averages``."""
    lam = checked_spectrum(lams)
    d = lam.shape[0]
    purity = float(lam @ lam)
    return (
        2.0 * (d - 1) / d**3,
        float((1.0 - lam @ lam) * (np.sqrt(lam).sum() ** 2 - 1.0) / d**3),
        (1.0 - purity) / d,
        (np.sqrt(lam).sum() ** 2 - 1.0) / d**2,
    )


def column_average_spectra():
    """(id, spectrum) pairs at d = 2 to 6: uniform, unsorted, round-off negative, Dirichlet."""
    rng = np.random.default_rng(SEED + 30)
    for d in range(2, 7):
        yield f"uniform-d{d}", np.full(d, 1.0 / d)
        yield f"unsorted-d{d}", np.arange(d, 0, -1) / (d * (d + 1) / 2)
        yield f"roundoff-d{d}", np.r_[-1e-13, np.zeros(d - 2), 1.0 + 1e-13]
        for k in range(3):
            yield f"dirichlet{k}-d{d}", rng.dirichlet(np.full(d, 0.5))


COLUMN_AVERAGE_SPECTRA = list(column_average_spectra())


def former_b2_average(lams) -> float:
    """``mub_b2_average`` as it read before the bound2 prefactor moved into ``bounds``."""
    lam = np.sort(checked_spectrum(lams))
    d = lam.shape[0]
    denom = float(lam[0] + lam[1])
    if denom <= 0.0:
        return 0.0
    return float(lam[0] * lam[1] / denom) * (2.0 * (d - 1) / d**3)


def fifty_digit_column_averages(lam) -> tuple[Decimal, ...]:
    """The four ``mub_column_averages`` to 50 digits from the pair sums over the float
    spectrum ``lam``, exactly as given."""
    with localcontext() as ctx:
        ctx.prec = 50
        x = [Decimal(float(v)) for v in lam]
        d = len(x)
        pairs = [x[j] * x[k] for j in range(d) for k in range(d) if j != k]
        mixed = sum(pairs)
        spread = sum(pair.sqrt() for pair in pairs)
        return Decimal(2 * (d - 1)) / d**3, mixed * spread / d**3, mixed / d, spread / d**2


def near_pure_and_dirichlet_spectra():
    """(10^-k, 1 - 10^-k) for k = 1 to 16, then 50 Dirichlet spectra at each d = 2 to 8."""
    for k in range(1, 17):
        yield np.array([10.0**-k, 1.0 - 10.0**-k])
    rng = np.random.default_rng(SEED + 31)
    for d in range(2, 9):
        yield from rng.dirichlet(np.full(d, 0.5), size=50)


class TestColumnAverages:
    @pytest.mark.parametrize(
        "lams", [lam for _, lam in COLUMN_AVERAGE_SPECTRA],
        ids=[name for name, _ in COLUMN_AVERAGE_SPECTRA],
    )
    def test_bit_for_bit_as_the_former_cli(self, lams):
        got = mub_column_averages(lams)
        assert got[0] == former_cli_targets(lams)[0]
        assert mub_lp_average(lams) == got[1]
        # the pair sums part from the former 1 - sum lam^2 and (sum sqrt(lam))^2 - 1 by
        # that form's cancellation; every column here is at most 1
        np.testing.assert_allclose(got, former_cli_targets(lams), rtol=0.0, atol=1e-12)

    def test_within_4_ulp_of_50_digits(self):
        worst = 0.0
        for lam in near_pure_and_dirichlet_spectra():
            # the oracle reads the floats the function reads: the spectrum over its sum
            exact_averages = fifty_digit_column_averages(checked_spectrum(lam))
            for got, exact in zip(mub_column_averages(lam), exact_averages):
                exact_ulp = Decimal(math.ulp(float(exact)))
                worst = max(worst, float(abs(Decimal(got) - exact) / exact_ulp))
        assert worst <= 4.0, worst

    @pytest.mark.parametrize("d", range(2, 7))
    def test_roundoff_spectrum_reads_no_negative_average(self, d):
        lam = np.r_[-1e-13, np.zeros(d - 2), 1.0 + 1e-13]
        averages = mub_column_averages(lam)
        assert min(averages) >= 0.0, averages

    @pytest.mark.parametrize(
        "lams", [lam for _, lam in COLUMN_AVERAGE_SPECTRA],
        ids=[name for name, _ in COLUMN_AVERAGE_SPECTRA],
    )
    def test_b2_average_bit_for_bit_as_before(self, lams):
        assert mub_b2_average(lams) == former_b2_average(lams)

    # the errors mub_lp_average raised before it read mub_column_averages
    @pytest.mark.parametrize(
        "lams, error, message",
        [
            ([-0.5, 1.5], InvalidStateError, "spectrum entry is negative: -5.000e-01"),
            ([0.7, 0.7], InvalidStateError, "spectrum sums to 1.4, expected 1"),
            ([np.nan, 1.0], InvalidStateError, "spectrum has a non-finite entry"),
            ([0.5, np.inf], InvalidStateError, "spectrum has a non-finite entry"),
            ([[0.5, 0.5]], InvalidStateError, "spectrum must be a 1-d sequence, got shape (1, 2)"),
            ([1.0], DimensionMismatchError, "dimension must be >= 2, got 1"),
        ],
        ids=["negative", "trace", "nan", "inf", "2-d", "one-entry"],
    )
    def test_spectrum_that_is_no_state_raises_as_lp_average(self, lams, error, message):
        for average in (mub_column_averages, mub_lp_average):
            with pytest.raises(error) as info:
                average(lams)
            assert type(info.value) is error and str(info.value) == message


class TestBasisCubature:
    """Each :func:`mub_sample_columns` column is a homogeneous quadratic form in each unit
    spectrum, and the basis vectors average such a form exactly: E[a^T Q a] = tr Q / d.  So
    the mean over the d^2 pairs (e_j, e_k) is the sphere average, up to round-off."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 16, 33])
    def test_basis_pairs_average_to_the_closed_forms(self, d):
        rng = np.random.default_rng(SEED + 90 + d)
        eye = np.eye(d)
        a, b = np.repeat(eye, d, axis=0), np.tile(eye, (d, 1))  # row j d + k is (e_j, e_k)
        # A sample's column nests sums of nonnegative terms under 4d deep, each term within
        # 32 eps (trigonometric table, square roots, products); the mean adds a sum of d^2.
        rtol = (d * d + 4 * d + 32) * np.finfo(float).eps
        for _ in range(5):
            lam = checked_spectrum(rng.dirichlet(np.ones(d)))
            got = mub_sample_columns(fourier_phases(d), lam, a, b).mean(axis=0)
            np.testing.assert_allclose(got, mub_column_averages(lam), rtol=rtol, atol=0.0)


class TestCommutatorNormPhaseSum:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_agrees_with_matrix_path(self, d):
        rng = np.random.default_rng(SEED + 5 + d)
        for _ in range(1000):
            a = unit_spectrum(rng, d)
            b = unit_spectrum(rng, d)
            lam = np.sort(rng.dirichlet(np.ones(d)))
            pair = fourier_mub_pair(d, a, b)
            cols = mub_sample_columns(fourier_phases(d), checked_spectrum(lam), a[None], b[None])
            phase_sum = cols[0, 0]
            rho = DensityMatrix.from_spectrum(lam)
            matrix_path = weighted_norm_sq(
                commutator(pair.observable_a(), pair.observable_b()), rho
            )
            assert abs(phase_sum - matrix_path) < 1e-9

    @pytest.mark.parametrize(
        "lams, error, message",
        [([2.0, -1.0], InvalidStateError, "negative"), ([0.2, 0.3, 0.5], ValueError, "2 entries")],
        ids=["negative", "wrong-length"],
    )
    def test_spectrum_that_is_no_state_of_the_pair_rejected(self, lams, error, message):
        pair = fourier_mub_pair(2, [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(error, match=message):
            mub_commutator_norm(pair, lams)

    def test_proportional_to_identity_commutes(self):
        d = 4
        spectrum = np.full(d, 1.0 / np.sqrt(d))  # A proportional to the identity
        rng = np.random.default_rng(SEED + 6)
        pair = fourier_mub_pair(d, spectrum, unit_spectrum(rng, d))
        assert mub_commutator_norm(pair, np.full(d, 1.0 / d)) == pytest.approx(0.0, abs=1e-12)


def shifted_fourier_phases(rng, d):
    """The Fourier table plus row phases alpha_j and column phases beta_k: the same
    |B~_jk|^2, but no longer equal to :func:`fourier_phases`."""
    return fourier_phases(d) + rng.uniform(0.0, 2.0 * np.pi, (d, 1)) + rng.uniform(
        0.0, 2.0 * np.pi, (1, d)
    )


class TestSampleColumnsMatrixPath:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.integers(min_value=2, max_value=6),
        rank_deficient=st.booleans(),
    )
    @example(seed=SEED, d=2, rank_deficient=True)
    def test_columns_match_matrix_path(self, seed, d, rank_deficient):
        rng = np.random.default_rng(seed)
        phases = shifted_fourier_phases(rng, d)
        lam = rng.dirichlet(np.ones(d))
        if rank_deficient:
            lam[rng.integers(d)] = 0.0
            lam /= lam.sum()
        a = sample_unit_vectors(d, 4, rng)
        b = sample_unit_vectors(d, 4, rng)
        cols = reference_mub_sample_columns(phases, lam, a, b)
        want = matrix_path_columns(phases, lam, a, b)
        np.testing.assert_allclose(cols, want, rtol=0.0, atol=1e-12)


def matrix_path_columns(phases, lam, a, b):
    """The four :func:`mub_sample_columns` of each row of ``a``, ``b`` built from the pair's
    matrices and the diagonal state: the matrix path, for any valid table."""
    d = len(lam)
    rho = DensityMatrix.from_spectrum(lam)  # diagonal in the given order
    rows = []
    for sa, sb in zip(a, b):
        pair = mub_pair(d, phases, sa, sb)
        obs_a, obs_b = pair.observable_a(), pair.observable_b()
        comm_norm = weighted_norm_sq(commutator(obs_a, obs_b), rho)
        # A commutes with rho, so its classical uncertainty is its variance
        factor_a = variance(obs_a, rho)
        factor_b = classical_uncertainty(obs_b, rho)
        rows.append([comm_norm, factor_a * factor_b, factor_a, factor_b])
    return np.array(rows)


def f4_phases(a):
    """Phase table of the d = 4 complex Hadamard family F4(a).

    Rows [1, 1, 1, 1], [1, i e^(ia), -1, -i e^(ia)], [1, -1, 1, -1] and
    [1, -i e^(ia), -1, i e^(ia)].  F4(0) is the Fourier table; for other a no
    row and column phases turn one into the other.
    """
    q = np.pi / 2
    return np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, q + a, np.pi, -q + a],
            [0.0, np.pi, 0.0, np.pi],
            [0.0, -q + a, np.pi, q + a],
        ]
    )


# F4(a) is symmetric, so only the column-permuted copy tells a table from its transpose
NON_FOURIER_TABLES = {
    "f4": f4_phases(0.7),
    "f4-permuted": f4_phases(0.7)[:, [2, 0, 3, 1]],
}


def reference_mub_average(phases, lams, samples, seed):
    """The four column estimates of :func:`mc_mub_average` on any valid table, drawn as it
    draws them but evaluated by :func:`reference_mub_sample_columns`."""
    lam = checked_spectrum(lams)

    def sample(count, rng):
        a = sample_unit_vectors(len(lam), count, rng)
        b = sample_unit_vectors(len(lam), count, rng)
        return reference_mub_sample_columns(phases, lam, a, b)

    return seeded_moments(sample, 2 * len(lam), samples, seed, Stream.MC_MUB).estimates()


def reference_mub_sample_columns(phases, lams, a, b):
    """The phase-sum formulas that gave :func:`mub_sample_columns` before it used the bound
    kernel's reductions: differences of sums, two of them clamped at 0."""
    d = phases.shape[0]
    u = np.exp(1j * phases) / np.sqrt(d)  # u[j, l] = <j|b_l>
    b_elems = np.einsum("nl,jl,kl->njk", b.astype(complex), u, u.conj())
    g = np.abs(b_elems) ** 2  # |<j|B|k>|^2
    a_sq = a**2
    sqrt_lam = np.sqrt(lams)
    # |[A,B]|_rho^2 = sum_jk lam_k a_j (a_j - 2 a_k) |<j|B|k>|^2 + sum_j lam_j a_j^2 <j|B^2|j>
    term1 = np.einsum("nj,njk,k->n", a_sq, g, lams) - 2.0 * np.einsum(
        "nj,njk,nk,k->n", a, g, a, lams
    )
    term2 = (a_sq @ lams) * np.einsum("nl,nl->n", b, b) / d
    comm_norm = term1 + term2
    factor_a = a_sq @ lams - (a @ lams) ** 2
    diag_b = np.einsum("njj->nj", b_elems).real
    factor_b = np.einsum("j,njk,k->n", sqrt_lam, g, sqrt_lam) - (diag_b @ lams) ** 2
    factor_a = nonnegative(factor_a, "classical uncertainty")
    factor_b = nonnegative(factor_b, "classical uncertainty")
    return np.column_stack([comm_norm, factor_a * factor_b, factor_a, factor_b])


class TestSampleColumnsReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.integers(min_value=2, max_value=16),
        f4=st.booleans(),
        zeros=st.integers(min_value=0, max_value=2),
    )
    @example(seed=SEED, d=16, f4=False, zeros=2)
    @example(seed=SEED, d=4, f4=True, zeros=1)
    def test_columns_match_former_formulas(self, seed, d, f4, zeros):
        rng = np.random.default_rng(seed)
        if f4:
            d = 4
            phases = f4_phases(rng.uniform(0.0, 2.0 * np.pi))
        else:
            phases = fourier_phases(d)
        lam = rng.dirichlet(np.ones(d))
        lam[rng.choice(d, min(zeros, d - 1), replace=False)] = 0.0
        lam /= lam.sum()
        a = sample_unit_vectors(d, 16, rng)
        b = sample_unit_vectors(d, 16, rng)
        # the sample columns read the Fourier table alone; F4 is read on the matrix path
        columns = matrix_path_columns if f4 else mub_sample_columns
        cols = columns(phases, lam, a, b)
        want = reference_mub_sample_columns(phases, lam, a, b)
        # the former formulas subtract sums of size up to 1 for unit spectra, so near a pure
        # state their round-off is 1e-16, however small the column: hence max(1, column max)
        assert np.all(np.abs(cols - want) <= 1e-14 * np.maximum(np.abs(want).max(axis=0), 1.0))
        assert np.all(cols >= 0.0)

    @pytest.mark.parametrize("d", [2, 4, 16])
    def test_samples_are_a_column_major_table(self, d):
        # the table Moments.of sums along memory; its values are the former column_stack's
        rng = np.random.default_rng(SEED + d)
        lam = rng.dirichlet(np.ones(d))
        got = mub_samples(lam, 500, np.random.default_rng(SEED))
        draws = np.random.default_rng(SEED)
        a = sample_unit_vectors(d, 500, draws)
        b = sample_unit_vectors(d, 500, draws)
        want = reference_mub_sample_columns(fourier_phases(d), lam, a, b)
        assert got.shape == (500, 4) and got.flags.f_contiguous
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(np.abs(want).max(axis=0), 1.0))
        np.testing.assert_array_equal(got[:, 1], got[:, 2] * got[:, 3])

    @pytest.mark.parametrize(
        "d, lam, a, b",
        [
            (3, np.full(3, 1 / 3), np.full(3, 1 / np.sqrt(3)), np.full(3, 1 / np.sqrt(3))),
            (4, np.full(4, 1 / 4), np.full(4, 1 / 2), np.array([0.0, 0.6, 0.0, 0.8])),
            (4, np.array([0.0, 0.0, 0.5, 0.5]), np.array([0.0, 0.6, 0.0, 0.8]), np.full(4, 1 / 2)),
            (2, np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([0.6, 0.8])),
        ],
        ids=["a-proportional-to-identity-d3", "a-proportional-to-identity-d4", "rank-2-d4",
             "pure-d2"],
    )
    def test_columns_are_nonnegative(self, d, lam, a, b):
        # a commuting pair has a zero commutator norm, which differences of sums can
        # leave at -5.55e-17; a sum of nonnegative terms cannot
        cols = mub_sample_columns(fourier_phases(d), lam, a[None, :], b[None, :])
        assert np.all(cols >= 0.0)


class TestCirculantFourierPath:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.integers(min_value=2, max_value=16),
        state=st.sampled_from(["full", "rank-deficient", "pure"]),
    )
    @example(seed=SEED, d=64, state="rank-deficient")
    @example(seed=SEED, d=2, state="pure")
    def test_matches_the_general_path(self, seed, d, state):
        rng = np.random.default_rng(seed)
        lam = rng.dirichlet(np.ones(d))
        if state == "rank-deficient":
            lam[rng.choice(d, d // 2, replace=False)] = 0.0
            lam /= lam.sum()
        elif state == "pure":
            lam = np.eye(d)[rng.integers(d)]
        a = sample_unit_vectors(d, 16, rng)
        b = sample_unit_vectors(d, 16, rng)
        cols = mub_sample_columns(fourier_phases(d), lam, a, b)
        want = matrix_path_columns(shifted_fourier_phases(rng, d), lam, a, b)
        assert np.all(np.abs(cols - want) <= 1e-14 * np.abs(want).max(axis=0))
        assert np.all(cols >= 0.0)

    def test_phase_tables_are_read_only_and_kept_for_the_last_dim_alone(self):
        waves, shifted = _phase_tables(5)
        assert not waves.flags.writeable and not shifted.flags.writeable
        assert _phase_tables(5)[0] is waves
        _phase_tables(6)
        assert _phase_tables(5)[0] is not waves

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 9, 64])
    def test_row_major_and_level_major_spectra_give_the_same_bits(self, d):
        # the sampler's level-major views are read with no copy, a row-major copy of the
        # same vectors through one, and neither is written to
        rng = np.random.default_rng(SEED + 30 + d)
        lam = rng.dirichlet(np.ones(d))
        a = sample_unit_vectors(d, 300, rng)
        b = sample_unit_vectors(d, 300, rng)
        rows_a, rows_b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        assert a.flags.f_contiguous and rows_a.flags.c_contiguous
        kept = a.copy(), b.copy()
        phases = fourier_phases(d)
        got = mub_sample_columns(phases, lam, a, b)
        np.testing.assert_array_equal(mub_sample_columns(phases, lam, rows_a, rows_b), got)
        np.testing.assert_array_equal(mub_sample_columns(phases, lam, a, rows_b), got)
        np.testing.assert_array_equal(a, kept[0])
        np.testing.assert_array_equal(b, kept[1])

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 16])
    def test_a_proportional_to_identity_commutes_exactly(self, d):
        # every gap a_(k+s) - a_k is an exact 0, so no round-off can leave a negative norm
        rng = np.random.default_rng(SEED + 20 + d)
        a = np.full((8, d), 1.0 / np.sqrt(d))
        b = sample_unit_vectors(d, 8, rng)
        for lam in (rng.dirichlet(np.ones(d)), np.eye(d)[0]):
            cols = mub_sample_columns(fourier_phases(d), lam, a, b)
            assert np.all(cols >= 0.0)
            assert np.all(cols[:, 0] == 0.0)

    def test_builds_no_overlap_table(self, monkeypatch):
        from commutator_bounds import cli, mub

        def no_table(phases):
            raise AssertionError("the Fourier path built the d x d^2 overlap table")

        monkeypatch.setattr(mub, "_overlaps", no_table)
        lam = np.array([0.1, 0.2, 0.3, 0.4])
        result = mc_mub_average(4, lam, 10_000, SEED + 21)
        assert result.comm_norm.samples == 10_000
        assert cli._mub_samples(lam, 100, np.random.default_rng(SEED + 22)).shape == (100, 4)

    @pytest.mark.parametrize(
        "phases",
        [shifted_fourier_phases(np.random.default_rng(SEED + 23), 4), f4_phases(0.7),
         fourier_phases(3)],
        ids=["shifted", "f4", "wrong-shape"],
    )
    def test_other_tables_rejected(self, phases):
        lam = np.full(4, 0.25)
        a = np.full((2, 4), 0.5)
        with pytest.raises(ValueError, match=r"fourier_phases\(4\) and no other table"):
            mub_sample_columns(phases, lam, a, a)


def invariance_case(seed, d, state):
    """(lam, a, b) for the invariance properties: a full, rank-deficient or pure state
    and 8 pairs of unit spectra."""
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(d))
    if state == "rank-deficient":
        lam[rng.choice(d, d // 2, replace=False)] = 0.0
        lam /= lam.sum()
    elif state == "pure":
        lam = np.eye(d)[rng.integers(d)]
    return lam, sample_unit_vectors(d, 8, rng), sample_unit_vectors(d, 8, rng)


INVARIANCE_CASES = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=2, max_value=16),
    state=st.sampled_from(["full", "rank-deficient", "pure"]),
)


def assert_same_columns(got, want):
    """Each column within 1e-13 of that column's maximum."""
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=0))


class TestFourierPathInvariances:
    @settings(max_examples=50, deadline=None)
    @given(**INVARIANCE_CASES, shift=st.integers(min_value=1, max_value=15))
    def test_rolling_the_state_and_a_together(self, seed, d, state, shift):
        # the cyclic shift X commutes with the Fourier B, and X A X^dag, X rho X^dag roll
        # the diagonals of A and rho: the same values
        lam, a, b = invariance_case(seed, d, state)
        cols = mub_sample_columns(fourier_phases(d), lam, a, b)
        rolled = mub_sample_columns(
            fourier_phases(d), np.roll(lam, shift), np.roll(a, shift, axis=1), b
        )
        assert_same_columns(rolled, cols)

    @settings(max_examples=50, deadline=None)
    @given(**INVARIANCE_CASES, c=st.floats(min_value=-1.0, max_value=1.0))
    def test_adding_a_constant_to_b(self, seed, d, state, c):
        # B + c leaves the commutator and the centered B' as they were
        lam, a, b = invariance_case(seed, d, state)
        cols = mub_sample_columns(fourier_phases(d), lam, a, b)
        assert_same_columns(mub_sample_columns(fourier_phases(d), lam, a, b + c), cols)

    @settings(max_examples=50, deadline=None)
    @given(**INVARIANCE_CASES, c=st.floats(min_value=-1.0, max_value=1.0))
    def test_adding_a_constant_to_a(self, seed, d, state, c):
        # and so does A + c for the commutator and the centered A'
        lam, a, b = invariance_case(seed, d, state)
        cols = mub_sample_columns(fourier_phases(d), lam, a, b)
        assert_same_columns(mub_sample_columns(fourier_phases(d), lam, a + c, b), cols)

    @settings(max_examples=50, deadline=None)
    @given(**INVARIANCE_CASES, k=st.integers(min_value=-20, max_value=20))
    def test_scaling_a_by_a_power_of_two(self, seed, d, state, k):
        # the norm, the Luo-Park term and V(A) are quadratic in A, C(B) does not read A,
        # and a power of two scales every float exactly
        lam, a, b = invariance_case(seed, d, state)
        cols = mub_sample_columns(fourier_phases(d), lam, a, b)
        scaled = mub_sample_columns(fourier_phases(d), lam, 2.0**k * a, b)
        assert scaled[:, :3].tolist() == (4.0**k * cols[:, :3]).tolist()
        assert scaled[:, 3].tolist() == cols[:, 3].tolist()


@pytest.mark.parametrize("name", sorted(NON_FOURIER_TABLES))
class TestNonFourierPhaseTable:
    def test_columns_match_matrix_path(self, name):
        phases = NON_FOURIER_TABLES[name]
        d = 4
        rng = np.random.default_rng(SEED + 13)
        for lam in (np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.5, 0.0, 0.3, 0.2])):
            a = sample_unit_vectors(d, 8, rng)
            b = sample_unit_vectors(d, 8, rng)
            cols = reference_mub_sample_columns(phases, lam, a, b)
            want = matrix_path_columns(phases, lam, a, b)
            np.testing.assert_allclose(cols, want, rtol=0.0, atol=1e-12)
            # mub_commutator_norm reads any pair on the matrix path
            norms = [mub_commutator_norm(mub_pair(d, phases, sa, sb), lam) for sa, sb in zip(a, b)]
            np.testing.assert_allclose(norms, cols[:, 0], rtol=0.0, atol=1e-12)

    def test_averages_meet_closed_forms(self, name):
        # the averages do not depend on which valid phase table is used
        d = 4
        lam = np.array([0.1, 0.2, 0.3, 0.4])
        result = reference_mub_average(NON_FOURIER_TABLES[name], lam, 100_000, SEED + 14)
        for field, est, target in zip(MUB_COLUMN_NAMES, result, mub_column_averages(lam)):
            assert abs(est.z_score(target)) <= 5.0, field


def fifty_digit_sample_columns(theta, lam, a, b) -> list:
    """The four :func:`mub_sample_columns` of one sample from their definitions, to 50
    digits, on the floats given: rho = diag(lam), A = diag(a), B = U diag(b) U^dag with
    u_jl = e^(i theta_jl) / sqrt(d), the norm Tr([A,B]^dag [A,B] rho), and
    C(X) = Tr(sqrt(rho) X' sqrt(rho) X') = sum_jk sqrt(lam_j lam_k) |X'_jk|^2 for the
    centered X' = X - Tr(rho X).  ``theta`` holds mpmath numbers or floats."""
    with mpmath.workdps(50):
        d = len(lam)
        lam, a, b = ([mpmath.mpf(float(x)) for x in v] for v in (lam, a, b))
        idx = range(d)

        def product(x, y):
            return [[mpmath.fsum(x[j][m] * y[m][k] for m in idx) for k in idx] for j in idx]

        def classical(x):
            mean = mpmath.fsum(lam[j] * x[j][j] for j in idx)
            return mpmath.fsum(
                mpmath.sqrt(lam[j] * lam[k]) * abs(x[j][k] - (mean if j == k else 0)) ** 2
                for j in idx for k in idx
            )

        u = [[mpmath.expj(theta[j][l]) / mpmath.sqrt(d) for l in idx] for j in idx]
        mat_a = [[a[j] if j == k else mpmath.mpf(0) for k in idx] for j in idx]
        mat_b = product([[u[j][l] * b[l] for l in idx] for j in idx],
                        [[mpmath.conj(u[k][l]) for k in idx] for l in idx])
        ab, ba = product(mat_a, mat_b), product(mat_b, mat_a)
        comm_norm = mpmath.fsum(
            abs(ab[j][k] - ba[j][k]) ** 2 * lam[k] for j in idx for k in idx
        )
        factor_a, factor_b = classical(mat_a), classical(mat_b)
        return [comm_norm, factor_a * factor_b, factor_a, factor_b]


def oracle_spectra(rng, d):
    """(name, spectrum): Dirichlet, rank-deficient, pure, and descending with a zero last entry."""
    yield "dirichlet", rng.dirichlet(np.ones(d))
    lam = rng.dirichlet(np.ones(d))
    lam[rng.choice(d, d // 2, replace=False)] = 0.0
    yield "rank-deficient", lam / lam.sum()
    yield "pure", np.eye(d)[rng.integers(d)]
    yield "descending-zero-last", np.r_[np.sort(rng.dirichlet(np.ones(d - 1)))[::-1], 0.0]


def oracle_tables():
    """(id, float table, 50-digit table, columns): the Fourier table, whose circulant path
    reads the exact angles 2 pi jk / d, then a row- and column-shifted Fourier table and
    F4(0.7), both read as the floats given on the matrix path."""
    rng = np.random.default_rng(SEED + 40)
    with mpmath.workdps(50):
        for d in (3, 4, 5):
            exact = [[2 * mpmath.pi * j * k / d for k in range(d)] for j in range(d)]
            yield f"fourier-d{d}", fourier_phases(d), exact, mub_sample_columns
            shifted = shifted_fourier_phases(rng, d)
            yield f"shifted-d{d}", shifted, shifted.tolist(), matrix_path_columns
    yield "f4", f4_phases(0.7), f4_phases(0.7).tolist(), matrix_path_columns


ORACLE_TABLES = list(oracle_tables())


class TestSampleColumnsFiftyDigits:
    @pytest.mark.parametrize(
        "phases, theta, columns", [t[1:] for t in ORACLE_TABLES],
        ids=[t[0] for t in ORACLE_TABLES],
    )
    def test_columns_within_1e14_relative(self, phases, theta, columns):
        d = phases.shape[0]
        rng = np.random.default_rng(SEED + 41 + d)
        for name, lam in oracle_spectra(rng, d):
            a = sample_unit_vectors(d, 6, rng)
            b = sample_unit_vectors(d, 6, rng)
            cols = columns(phases, lam, a, b)
            for row, sa, sb in zip(cols, a, b):
                exact = fifty_digit_sample_columns(theta, lam, sa, sb)
                if name == "pure":
                    # V(A), C(B) and their product vanish on a pure state, exactly
                    assert row[1:].tolist() == [0.0, 0.0, 0.0], name
                    exact = exact[:1]
                for got, want in zip(row, exact):
                    assert abs(mpmath.mpf(float(got)) - want) <= 1e-14 * abs(want), (name, got)


class TestMonteCarlo:
    def test_qubit_uniform_state(self):
        result = mc_mub_average(2, [0.5, 0.5], 100_000, SEED + 7)
        assert abs(result.comm_norm.z_score(1 / 4)) < 4.0
        assert abs(result.lp_term.z_score(mub_lp_average([0.5, 0.5]))) < 4.0

    def test_factor_means(self):
        # a-factor target (1 - P)/d, b-factor target ((sum sqrt(lam))^2 - 1)/d^2
        lam = np.array([0.25, 0.75])
        result = mc_mub_average(2, lam, 100_000, SEED + 8)
        assert abs(result.lp_factor_a.z_score(3 / 16)) < 4.0
        target_b = (np.sqrt(lam).sum() ** 2 - 1.0) / 4.0
        assert abs(result.lp_factor_b.z_score(target_b)) < 4.0

    def test_three_level_comm_norm(self):
        result = mc_mub_average(3, np.full(3, 1 / 3), 100_000, SEED + 9)
        assert abs(result.comm_norm.z_score(4 / 27)) < 4.0

    def test_lambda_and_phase_independence(self):
        # the commutator-norm average depends on neither the state spectrum
        # nor the (valid) phase table
        rng = np.random.default_rng(SEED + 10)
        d = 3
        # three seeds, so that the three estimates are independent
        base = mc_mub_average(d, np.full(d, 1 / d), 50_000, SEED + 10)
        other_state = mc_mub_average(d, np.sort(rng.dirichlet(np.ones(d))), 50_000, SEED + 11)
        shifted = fourier_phases(d) + rng.uniform(0, 2 * np.pi, (d, 1)) + rng.uniform(
            0, 2 * np.pi, (1, d)
        )
        # the sample columns read the Fourier table alone, so the reference reads this one
        other_phases = reference_mub_average(shifted, np.full(d, 1 / d), 50_000, SEED + 12)[0]
        target = mub_commutator_norm_average(d)
        for est in (base.comm_norm, other_state.comm_norm, other_phases):
            assert abs(est.z_score(target)) < 5.0
        mutual = abs(base.comm_norm.mean - other_phases.mean)
        scale = np.hypot(base.comm_norm.std_error, other_phases.std_error)
        assert mutual < 5.0 * scale

    @pytest.mark.parametrize(
        "lams", [[-0.5, 1.5], [0.7, 0.7], [np.nan, 1.0]], ids=["negative", "trace", "nan"]
    )
    def test_spectrum_that_is_no_state_rejected(self, lams):
        with pytest.raises(InvalidStateError):
            mc_mub_average(2, lams, 10_000, 0)

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            mc_mub_average(2, [0.5, 0.5], 5000, 0)

    def test_one_sample_short_of_the_minimum_names_it(self):
        with pytest.raises(ValueError, match="need at least 10000 samples, got 9999"):
            mc_mub_average(2, [0.5, 0.5], 9_999, 0)

    def test_one_level_rejected(self):
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            mc_mub_average(1, [1.0], 10_000, 0)

    @pytest.mark.parametrize(
        "dim, phases, message",
        [
            (2, np.zeros((2, 2)), "orthonormal eigenbasis"),
            (3, fourier_phases(2), r"phase table must have shape \(3, 3\)"),
            (2, np.full((2, 2), np.nan), "orthonormal eigenbasis"),
        ],
        ids=["not-a-basis", "wrong-shape", "nan"],
    )
    def test_phase_table_checked_as_in_mub_pair(self, dim, phases, message):
        rng = np.random.default_rng(SEED)
        with pytest.raises(ValueError, match=message):
            mub_pair(dim, phases, unit_spectrum(rng, dim), unit_spectrum(rng, dim))


class TestThetaParameterizedLP:
    def test_axis_aligned_value(self):
        for purity in (0.5, 0.7, 0.95):
            expected = (2 * (1 - purity)) ** 1.5
            assert qubit_mub_theta_lp(purity, 0.0) == pytest.approx(expected, abs=1e-14)

    def test_maximum_at_quarter_turn(self):
        rng = np.random.default_rng(SEED + 11)
        for purity in rng.uniform(0.5, 1.0, 20):
            q = np.sqrt(2 * (1 - purity))
            peak = q**2 * (1 + q) ** 2 / 4
            assert qubit_mub_theta_lp(purity, np.pi / 4) == pytest.approx(peak, abs=1e-12)
            thetas = rng.uniform(0, 2 * np.pi, 50)
            values = [qubit_mub_theta_lp(purity, t) for t in thetas]
            assert max(values) <= peak + 1e-12

    def test_never_exceeds_conjectured_bound(self):
        rng = np.random.default_rng(SEED + 12)
        for purity in rng.uniform(0.5, 1.0, 50):
            theta = rng.uniform(0, 2 * np.pi)
            assert qubit_mub_theta_lp(purity, theta) <= 2 * (1 - purity) + 1e-12

    def test_maximally_mixed_quarter_turn_is_one(self):
        assert qubit_mub_theta_lp(0.5, np.pi / 4) == pytest.approx(1.0)


def fifty_digit_fig2_row(purity: float) -> tuple[Decimal, Decimal]:
    """The Luo-Park and conjectured MUB averages at the float ``purity``, exactly as given,
    to 50 digits from the qubit spectrum ((1 - r)/2, (1 + r)/2), r = sqrt(2P - 1)."""
    with localcontext() as ctx:
        ctx.prec = 50
        root = (2 * Decimal(purity) - 1).sqrt()
        low, high = (1 - root) / 2, (1 + root) / 2
        lp = (1 - low * low - high * high) * ((low.sqrt() + high.sqrt()) ** 2 - 1) / 8
        return lp, low * high / (low + high) * 2 / 8


class TestFig2Rows:
    def test_endpoints(self):
        rows = fig2_rows(3)
        np.testing.assert_allclose(rows[0], [0.5, 1 / 16, 1 / 16], atol=1e-14)
        np.testing.assert_allclose(rows[-1], [1.0, 0.0, 0.0], atol=1e-14)

    def test_dominance_on_grid(self):
        rows = fig2_rows(512)
        purity, lp, b2 = rows.T
        assert np.all(b2 >= lp - 1e-15)
        interior = (purity > 0.5 + 1e-9) & (purity < 1.0 - 1e-9)
        assert np.all(b2[interior] - lp[interior] > 1e-12)

    @pytest.mark.parametrize("points", [3, 512, 2001])
    def test_matches_spectrum_route(self, points):
        # the general-d averages at the spectrum ((1 - r)/2, (1 + r)/2) of each purity
        rows = fig2_rows(points)
        lams = [qubit_spectrum_from_purity(p) for p in rows[:, 0]]
        want = np.array([(mub_lp_average(lam), mub_b2_average(lam)) for lam in lams])
        assert np.max(np.abs(rows[:, 1:] - want)) <= 1e-16

    def test_within_8_ulp_of_50_digits(self):
        # the float spectrum route to these columns cancels near P = 1; the table must not
        worst = [0.0, 0.0]
        for purity, lp, b2 in fig2_rows(2001):
            for j, (got, exact) in enumerate(zip((lp, b2), fifty_digit_fig2_row(purity))):
                exact_ulp = Decimal(math.ulp(float(exact)))
                worst[j] = max(worst[j], float(abs(Decimal(got) - exact) / exact_ulp))
        assert max(worst) <= 8.0, worst

    def test_spectrum_parameterization(self):
        lam = qubit_spectrum_from_purity(0.75)
        assert lam @ lam == pytest.approx(0.75)
        np.testing.assert_allclose(lam.sum(), 1.0, atol=1e-15)
