"""Quantum-state module: validation, spectral summaries, Bloch maps, sampling."""

import numpy as np
import pytest

from commutator_bounds import (
    DensityMatrix,
    EigensolverError,
    InvalidStateError,
    Observable,
    PAULI_X,
    PAULI_Z,
    sample_density,
    sample_density_batch,
    sample_hermitian,
    sample_hermitian_batch,
    sample_unit_vectors,
)
from commutator_bounds.optimizer import conjectured_constant
from commutator_bounds.states import checked_spectrum

SEED = 20240902


class TestDensityFromBloch:
    def test_origin_is_maximally_mixed(self):
        rho = DensityMatrix.from_bloch([0.0, 0.0, 0.0])
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-15)
        assert rho.purity == pytest.approx(0.5)

    def test_north_pole_is_pure(self):
        rho = DensityMatrix.from_bloch([0.0, 0.0, 1.0])
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert rho.purity == pytest.approx(1.0)

    def test_half_z_state(self):
        # (I + z/2 sigma_z)/2 = diag(3/4, 1/4); ascending spectrum (1/4, 3/4), P = 5/8.
        rho = DensityMatrix.from_bloch([0.0, 0.0, 0.5])
        np.testing.assert_allclose(rho.spectrum, [0.25, 0.75], atol=1e-14)
        assert rho.purity == pytest.approx(5.0 / 8.0)

    def test_outside_ball_rejected(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix.from_bloch([0.8, 0.8, 0.8])

    def test_round_trip(self):
        rng = np.random.default_rng(SEED)
        for _ in range(1000):
            c = rng.standard_normal(3)
            c *= rng.uniform(0.0, 1.0) / np.linalg.norm(c)
            rho = DensityMatrix.from_bloch(c)
            np.testing.assert_allclose(rho.bloch_vector(), c, atol=1e-12)


class TestDensityValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_wrong_trace_rejected(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))

    def test_roundoff_negative_clipped(self):
        eps = 5e-13
        rho = DensityMatrix(np.diag([-eps, 0.5, 0.5 + eps]).astype(complex))
        assert rho.spectrum[0] == 0.0
        assert rho.spectrum.sum() == pytest.approx(1.0, abs=1e-15)

    # One floor serves every spectrum check: -5e-13 is round-off, -2e-12 is no state.
    @pytest.mark.parametrize(
        "smallest",
        [
            lambda lam: checked_spectrum(lam).min(),
            lambda lam: DensityMatrix(np.diag(lam)).spectrum[0],
            lambda lam: 1.0 / conjectured_constant(lam),
        ],
        ids=["checked_spectrum", "DensityMatrix", "conjectured_constant"],
    )
    def test_shared_roundoff_floor(self, smallest):
        assert smallest([0.5, -5e-13, 0.5 + 5e-13]) == 0.0
        with pytest.raises(InvalidStateError):
            smallest([0.5, -2e-12, 0.5 + 2e-12])

    def test_matrix_is_write_protected(self):
        rho = DensityMatrix.maximally_mixed(3)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_invalid_spectrum_rejected(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix.from_spectrum([0.5, -0.1, 0.6])
        with pytest.raises(InvalidStateError):
            DensityMatrix.from_spectrum([0.3, 0.3])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_non_finite_matrix_rejected(self, bad, where):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[where] = mat[where[::-1]] = bad
        with pytest.raises(InvalidStateError, match="non-finite"):
            DensityMatrix(mat)

    def test_spectrum_length_is_checked_when_given(self):
        np.testing.assert_array_equal(checked_spectrum([0.5, 0.5], 2), [0.5, 0.5])
        with pytest.raises(InvalidStateError, match="must have 3 entries"):
            checked_spectrum([0.5, 0.5], 3)

    @pytest.mark.parametrize("spectrum", [[np.nan, np.nan], [np.nan, 1.0], [0.5, 0.5, np.nan]])
    def test_non_finite_spectrum_rejected(self, spectrum):
        with pytest.raises(InvalidStateError):
            DensityMatrix.from_spectrum(spectrum)

    def test_eigensolver_failure_raises(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigensolverError, match="did not converge"):
            DensityMatrix.maximally_mixed(2)


class TestSpectralSummary:
    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert (*rho.spectrum, rho.purity) == pytest.approx((0.5, 0.5, 0.5))

    def test_half_z_state(self):
        rho = DensityMatrix.from_bloch([0, 0, 0.5])
        assert (*rho.spectrum, rho.purity) == pytest.approx((0.25, 0.75, 0.625))

    def test_three_level(self):
        rho = DensityMatrix.from_spectrum([1 / 6, 2 / 6, 3 / 6])
        assert (*rho.spectrum, rho.purity) == pytest.approx((1 / 6, 1 / 3, 1 / 2, 14 / 36))

    def test_qubit_purity_relation(self):
        # lam_min = (1 - sqrt(2P-1))/2, lam_max = (1 + sqrt(2P-1))/2 for qubits.
        rng = np.random.default_rng(SEED + 2)
        for _ in range(200):
            rho = sample_density(2, "hilbert-schmidt", rng)
            root = np.sqrt(2.0 * rho.purity - 1.0)
            np.testing.assert_allclose(
                rho.spectrum, [(1.0 - root) / 2.0, (1.0 + root) / 2.0], rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("kind", ["sorted", "permuted", "repeated"])
    @pytest.mark.parametrize("d", range(2, 16))
    def test_diagonal_state_eigenvectors_are_a_permutation(self, d, kind):
        # LAPACK's eigenvectors of a diagonal state are used as they come, and the
        # witnesses verify-conjecture writes are built from them: they must be exact
        rng = np.random.default_rng(SEED + d)
        lam = {
            "sorted": np.arange(1.0, d + 1),
            "permuted": rng.permutation(np.arange(1.0, d + 1)),
            "repeated": rng.permutation(np.arange(d) // 2 + 1.0),
        }[kind]
        rho = DensityMatrix.from_spectrum(lam / lam.sum())
        vec = rho.eigenvectors
        assert np.isin(vec, [0.0, 1.0]).all()
        assert not np.signbit(vec.real).any() and not np.signbit(vec.imag).any()
        np.testing.assert_array_equal(vec.T @ vec, np.eye(d))
        np.testing.assert_array_equal(vec.real.T @ np.diagonal(rho.matrix).real, rho.spectrum)


class TestSampling:
    def test_hilbert_schmidt_statistics(self):
        rng = np.random.default_rng(SEED + 4)
        purities = []
        for _ in range(10_000):
            rho = sample_density(4, "hilbert-schmidt", rng)
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
            purities.append(rho.purity)
        mean_purity = np.mean(purities)
        assert 0.25 < mean_purity < 1.0

    def test_flat_simplex_contract(self):
        rng = np.random.default_rng(SEED + 5)
        rho = sample_density(3, "flat-simplex", rng)
        off_diag = rho.matrix - np.diag(np.diagonal(rho.matrix))
        assert np.linalg.norm(off_diag) < 1e-14
        diag = np.diagonal(rho.matrix).real
        assert np.all(np.diff(diag) >= 0)
        assert diag.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_spec_rejected(self):
        with pytest.raises(InvalidStateError):
            sample_density(3, "bures", np.random.default_rng(0))

    @pytest.mark.parametrize(
        "spec",
        ["hilbert_schmidt", "Flat-Simplex", [0.5, 0.5], np.array([0.5, 0.5])],
        ids=["underscore", "capitals", "list", "array"],
    )
    def test_only_the_two_ensemble_names_are_specs(self, spec):
        with pytest.raises(InvalidStateError, match="unknown sampling spec"):
            sample_density(2, spec, np.random.default_rng(0))

    def test_sphere_second_moments(self):
        # <a_j a_k> = delta_jk / 3 at one million draws, within 3 standard errors.
        n = 1_000_000
        a = sample_unit_vectors(3, n, np.random.default_rng(SEED + 8))
        prods = np.einsum("ni,nj->nij", a, a)
        mean = prods.mean(axis=0)
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        target = np.eye(3) / 3.0
        assert np.all(np.abs(mean - target) <= 3.0 * se + 1e-12)

    def test_batch_samplers_produce_valid_ensembles(self):
        rng = np.random.default_rng(SEED + 9)
        batch = sample_hermitian_batch(3, 200, rng)
        np.testing.assert_allclose(batch, batch.conj().transpose(0, 2, 1), atol=1e-14)
        # entry scale matches the scalar sampler: diagonal variance 1, off-diagonal 1/2
        assert np.var(np.diagonal(batch, axis1=1, axis2=2).real) == pytest.approx(1.0, rel=0.3)
        assert np.var(batch[:, 0, 1].real) == pytest.approx(0.5, rel=0.3)

        rhos = sample_density_batch(3, 200, rng)
        traces = np.einsum("nii->n", rhos).real
        np.testing.assert_allclose(traces, 1.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(rhos)
        assert eigs.min() > -1e-12
        # every batch state passes full validation
        for i in range(0, 200, 40):
            DensityMatrix(rhos[i])

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_hermitian_draw_is_a_batch_row(self, d):
        rng, batch_rng = np.random.default_rng(SEED + d), np.random.default_rng(SEED + d)
        obs = sample_hermitian(d, rng)
        np.testing.assert_array_equal(obs.matrix, sample_hermitian_batch(d, 1, batch_rng)[0])
        assert rng.bit_generator.state == batch_rng.bit_generator.state

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_hilbert_schmidt_draw_is_a_batch_row(self, d):
        rng, batch_rng = np.random.default_rng(SEED + d), np.random.default_rng(SEED + d)
        rho = sample_density(d, "hilbert-schmidt", rng)
        row = DensityMatrix(sample_density_batch(d, 1, batch_rng)[0])
        np.testing.assert_allclose(rho.matrix, row.matrix, rtol=0.0, atol=1e-14)
        assert rng.bit_generator.state == batch_rng.bit_generator.state


class TestObservable:
    def test_requires_hermitian(self):
        from commutator_bounds import NotHermitianError

        with pytest.raises(NotHermitianError):
            Observable(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))

    def test_non_finite_entry_rejected(self):
        from commutator_bounds import NotHermitianError

        with pytest.raises(NotHermitianError, match="non-finite"):
            Observable([[np.nan, 0.0], [0.0, 1.0]])

    def test_pauli_x_from_bloch(self):
        np.testing.assert_allclose(Observable.from_bloch([1, 0, 0]).matrix, PAULI_X, atol=0)
        np.testing.assert_allclose(Observable.from_bloch([0, 0, 1]).matrix, PAULI_Z, atol=0)
