"""Matrix-core: commutators, weighted semi-norms, Hermiticity, and the eigensystem of a state."""

import numpy as np
import pytest

from commutator_bounds import (
    DensityMatrix,
    DimensionMismatchError,
    NotHermitianError,
    NumericalConsistencyError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    batch_bounds,
    bound_luo_park,
    bound_one,
    bound_report,
    bound_robertson,
    bound_schrodinger,
    bound_two,
    commutator,
    conjectured_constant,
    equality_witness,
    frobenius_norm_sq,
    loose_constant,
    maximize_ratio,
    mc_mub_average,
    mub_b2_average,
    mub_lp_average,
    mub_pair,
    sample_density,
    sample_density_batch,
    sample_hermitian,
    sample_unitary,
    sphere_moment_check,
    weighted_inner_product,
    weighted_norm_sq,
)
from commutator_bounds.linalg import checked_dim, require_hermitian

SEED = 20240901


def rand_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestCommutator:
    def test_pauli_algebra(self):
        np.testing.assert_allclose(commutator(PAULI_X, PAULI_Y), 2j * PAULI_Z, atol=1e-15)

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(SEED)
        a = rand_complex(rng, 4)
        np.testing.assert_allclose(commutator(a, a), np.zeros((4, 4)), atol=1e-12)

    def test_hand_expanded_two_by_two(self):
        # A = diag(1,2), B = offdiag(1;1): AB = [[0,1],[2,0]], BA = [[0,2],[1,0]].
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        expected = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(commutator(a, b), expected, atol=1e-15)

    def test_anti_hermitian_for_hermitian_inputs(self):
        rng = np.random.default_rng(SEED + 1)
        a = sample_hermitian(5, rng).matrix
        b = sample_hermitian(5, rng).matrix
        c = commutator(a, b)
        np.testing.assert_allclose(c, -c.conj().T, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            commutator(np.eye(2), np.eye(3))


class TestWeightedInnerProduct:
    def test_identity_pair_gives_trace_of_state(self):
        rho = DensityMatrix.from_bloch([0.3, -0.2, 0.4])
        assert weighted_inner_product(np.eye(2), np.eye(2), rho) == pytest.approx(1.0)

    def test_orthogonal_paulis_at_maximal_mixing(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert abs(weighted_inner_product(PAULI_X, PAULI_Y, rho)) < 1e-15

    def test_pauli_z_squared_traces_state(self):
        rho = DensityMatrix.from_spectrum([0.25, 0.75])
        assert weighted_inner_product(PAULI_Z, PAULI_Z, rho) == pytest.approx(1.0)

    def test_conjugate_symmetry_and_linearity(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            a, b, c = (rand_complex(rng, d) for _ in range(3))
            rho = sample_density(d, "hilbert-schmidt", rng)
            ab = weighted_inner_product(a, b, rho)
            ba = weighted_inner_product(b, a, rho)
            assert abs(ab - np.conj(ba)) < 1e-12
            alpha, beta = complex(0.7, -1.1), complex(-0.3, 0.2)
            lhs = weighted_inner_product(a, alpha * b + beta * c, rho)
            rhs = alpha * ab + beta * weighted_inner_product(a, c, rho)
            assert abs(lhs - rhs) < 1e-10
            assert weighted_inner_product(a, a, rho).real >= -1e-12


class TestWeightedNormSq:
    def test_unitary_has_unit_weighted_norm(self):
        rng = np.random.default_rng(SEED + 3)
        for d in (2, 3, 5):
            u = sample_unitary(d, rng)
            rho = sample_density(d, "hilbert-schmidt", rng)
            assert weighted_norm_sq(u, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_x_squared_is_identity(self):
        rho = DensityMatrix.from_spectrum([0.25, 0.75])
        assert weighted_norm_sq(PAULI_X, rho) == pytest.approx(1.0)

    def test_sandwich_between_extreme_eigenvalues(self):
        # lam_min |A|^2 <= |A|_rho^2 <= lam_max |A|^2
        rng = np.random.default_rng(SEED + 4)
        for _ in range(100):
            d = int(rng.integers(2, 7))
            a = rand_complex(rng, d)
            rho = sample_density(d, "hilbert-schmidt", rng)
            plain = frobenius_norm_sq(a)
            weighted = weighted_norm_sq(a, rho)
            lam = rho.spectrum
            assert lam[0] * plain - 1e-9 <= weighted <= lam[-1] * plain + 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            a, b = rand_complex(rng, d), rand_complex(rng, d)
            rho = sample_density(d, "hilbert-schmidt", rng)
            lhs = np.sqrt(weighted_norm_sq(a + b, rho))
            rhs = np.sqrt(weighted_norm_sq(a, rho)) + np.sqrt(weighted_norm_sq(b, rho))
            assert lhs <= rhs + 1e-10

    def test_large_imaginary_residue_raises(self):
        # A non-Hermitian weight makes the trace genuinely complex:
        # Tr(A^2 W) = 1.5 + i for this pair.
        a = np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)
        bad_weight = np.array([[0.5, 0.5j], [0.5j, 0.5]], dtype=complex)
        with pytest.raises(NumericalConsistencyError):
            weighted_norm_sq(a, bad_weight)


class TestFrobeniusNormSq:
    def test_identity(self):
        assert frobenius_norm_sq(np.eye(3)) == pytest.approx(3.0)

    def test_pauli(self):
        assert frobenius_norm_sq(PAULI_X) == pytest.approx(2.0)

    def test_scaled_antihermitian(self):
        assert frobenius_norm_sq(2j * PAULI_Z) == pytest.approx(8.0)

    def test_matches_identity_weight(self):
        rng = np.random.default_rng(SEED + 6)
        a = rand_complex(rng, 4)
        assert frobenius_norm_sq(a) == pytest.approx(
            weighted_norm_sq(a, np.eye(4)), rel=1e-12
        )


ONE = np.array([[1.0 + 0j]])

#: Every function that reads two eigenvalues, called at d = 1.
ONE_LEVEL_CALLS = {
    "sample_density": lambda rng: sample_density(1, "hilbert-schmidt", rng),
    "sphere_moment_check": lambda rng: sphere_moment_check(1, 10_000, SEED),
    "mub_lp_average": lambda rng: mub_lp_average([1.0]),
    "mub_b2_average": lambda rng: mub_b2_average([1.0]),
    "mub_pair": lambda rng: mub_pair(1, [[0.0]], [1.0], [1.0]),
    "mc_mub_average": lambda rng: mc_mub_average(1, [1.0], 10_000, SEED),
    **{
        fn.__name__: (lambda rng, fn=fn: fn(ONE, ONE, ONE))
        for fn in (bound_robertson, bound_schrodinger, bound_luo_park, bound_one, bound_two,
                   bound_report)
    },
    "batch_bounds": lambda rng: batch_bounds(ONE[None], ONE[None], ONE[None]),
    **{
        fn.__name__: (lambda rng, fn=fn: fn(ONE))
        for fn in (conjectured_constant, loose_constant, equality_witness, maximize_ratio)
    },
}


class TestCheckedDim:
    def test_two_levels_pass(self):
        assert checked_dim(2) == 2
        assert checked_dim(np.int64(5)) == 5

    @pytest.mark.parametrize("name", sorted(ONE_LEVEL_CALLS))
    def test_one_level_raises_one_error(self, name):
        with pytest.raises(DimensionMismatchError, match="dimension must be >= 2, got 1"):
            ONE_LEVEL_CALLS[name](np.random.default_rng(SEED))


class TestHermitianEigensystem:
    """The ascending spectrum and eigenvector columns a DensityMatrix computes."""

    def test_sorted_diagonal(self):
        rho = DensityMatrix(np.diag([3.0, 1.0, 2.0]).astype(complex) / 6.0)
        np.testing.assert_allclose(rho.spectrum, [1 / 6, 2 / 6, 3 / 6], atol=1e-14)

    def test_pauli_x_eigensystem(self):
        rho = DensityMatrix((np.eye(2) + PAULI_X) / 2.0)
        np.testing.assert_allclose(rho.spectrum, [0.0, 1.0], atol=1e-14)
        # eigenvectors are (|0> -+ |1>)/sqrt(2) up to phase
        for k, sign in ((0, -1.0), (1, 1.0)):
            v = rho.eigenvectors[:, k]
            expected = np.array([1.0, sign]) / np.sqrt(2.0)
            phase = v[np.argmax(np.abs(v))] / expected[np.argmax(np.abs(v))]
            np.testing.assert_allclose(v, phase * expected, atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(SEED + 7)
        for d in np.repeat(np.arange(2, 9), 20):
            rho = sample_density(int(d), "hilbert-schmidt", rng)
            vec, lam = rho.eigenvectors, rho.spectrum
            assert np.all(np.diff(lam) >= 0)
            assert np.linalg.norm(vec.conj().T @ vec - np.eye(d)) < 1e-10
            assert np.linalg.norm((vec * lam) @ vec.conj().T - rho.matrix) < 1e-12

    def test_deterministic_for_equal_inputs(self):
        mat = sample_density_batch(6, 1, np.random.default_rng(SEED + 8))[0]
        first, second = DensityMatrix(mat), DensityMatrix(np.array(mat))
        np.testing.assert_array_equal(first.spectrum, second.spectrum)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)
        np.testing.assert_array_equal(first.matrix, second.matrix)

    def test_degenerate_gauge_is_valid(self):
        # a state with a 2-fold and a 1-fold eigenspace
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]).astype(complex))
        vec = rho.eigenvectors
        assert np.linalg.norm((vec * rho.spectrum) @ vec.conj().T - rho.matrix) < 1e-12
        assert np.linalg.norm(vec.conj().T @ vec - np.eye(3)) < 1e-12
        with pytest.raises(ValueError):
            vec[0, 0] = 1.0

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestBottcherWenzel:
    """|[A,B]|^2 <= 2 |A|^2 |B|^2 over complex matrices, and for normal A."""

    @staticmethod
    def _check(a_batch, b_batch):
        comm = a_batch @ b_batch - b_batch @ a_batch
        lhs = np.sum(np.abs(comm) ** 2, axis=(1, 2))
        rhs = 2.0 * np.sum(np.abs(a_batch) ** 2, axis=(1, 2)) * np.sum(
            np.abs(b_batch) ** 2, axis=(1, 2)
        )
        assert np.all(lhs <= rhs * (1.0 + 1e-12))

    @pytest.mark.parametrize("d", range(2, 11))
    def test_general_complex(self, d):
        rng = np.random.default_rng(SEED + 10 + d)
        n = 200
        a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        b = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        self._check(a, b)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_normal_a(self, d):
        rng = np.random.default_rng(SEED + 30 + d)
        n = 100
        b = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        # Hermitian normals
        g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        herm = (g + g.conj().transpose(0, 2, 1)) / 2.0
        self._check(herm, b)
        # unitary-conjugated complex diagonals
        normals = np.empty((n, d, d), dtype=complex)
        for i in range(n):
            u = sample_unitary(d, rng)
            diag = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            normals[i] = (u * diag) @ u.conj().T
        self._check(normals, b)
