"""Conjecture optimizer: constants, witnesses, ratio, alternating maximization."""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from commutator_bounds import (
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    NumericalConsistencyError,
    PAULI_X,
    PAULI_Y,
    commutator,
    conjectured_constant,
    equality_witness,
    loose_constant,
    matrix_from_pairs,
    matrix_to_pairs,
    maximize_ratio,
    ratio,
    result_record,
    sample_density,
    sample_unitary,
    weighted_norm_sq,
)
from commutator_bounds.optimizer import _RatioProblem

SEED = 20240906

RHO123 = DensityMatrix.from_spectrum([1 / 6, 2 / 6, 3 / 6])


def _hermitian_basis(dim):
    """Orthonormal (Hilbert-Schmidt) basis of Hermitian dim x dim matrices."""
    mats = []
    for j in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[j, j] = 1.0
        mats.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / math.sqrt(2.0)
            mats.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j / math.sqrt(2.0)
            m[k, j] = 1.0j / math.sqrt(2.0)
            mats.append(m)
    return np.stack(mats)


def reference_half_step(rho, mode, other, side):
    """The dense Kronecker formulation of a half step, in the original basis.

    Column-stacking vectorization: vec([A, B]) = (B^T ox I - I ox B) vec(A) and
    Tr(X^dag X rho) = vec(X)^dag (rho^T ox I) vec(X); the top generalized
    eigenpair of K^dag W K against W, restricted to the Hermitian basis in
    Hermitian mode.  Returns the maximizer, of unit weighted norm, and the
    optimal ratio.
    """
    d = rho.dim
    eye = np.eye(d)
    weight = np.kron(rho.matrix.T, eye)
    k = np.kron(other.T, eye) - np.kron(eye, other)
    if side == "b":
        k = -k
    m = k.conj().T @ weight @ k
    if mode == "hermitian":
        basis = _hermitian_basis(d)
        trans = np.stack([b.reshape(-1, order="F") for b in basis], axis=1)
        m = (trans.conj().T @ m @ trans).real
        weight = (trans.conj().T @ weight @ trans).real
    n = m.shape[0]
    top, v = scipy.linalg.eigh(m, weight, subset_by_index=[n - 1, n - 1])
    if mode == "hermitian":
        new = np.einsum("i,ijk->jk", v[:, 0], basis)
    else:
        new = v[:, 0].reshape((d, d), order="F")
    optimum = float(top[0]) / weighted_norm_sq(other, rho)
    return new / math.sqrt(weighted_norm_sq(new, rho)), optimum


class TestConstants:
    def test_conjectured_values(self):
        assert conjectured_constant(DensityMatrix.maximally_mixed(2)) == pytest.approx(4.0)
        assert conjectured_constant(RHO123) == pytest.approx(9.0)
        assert conjectured_constant([0.0, 0.5, 0.5]) == np.inf

    def test_loose_values(self):
        assert loose_constant(DensityMatrix.maximally_mixed(2)) == pytest.approx(4.0)
        assert loose_constant(RHO123) == pytest.approx(36.0)
        assert loose_constant([0.0, 1.0]) == np.inf

    def test_identity_weight_recovers_unweighted_constant(self):
        # all-ones spectrum: the classic factor 2 of the unweighted inequality
        assert loose_constant(np.ones(5)) == pytest.approx(2.0)
        assert conjectured_constant(np.ones(5)) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "lam", [[np.nan, 0.5, 0.5], [0.5, 0.5, np.nan], [0.5, np.inf, 0.5]],
        ids=["nan-first", "nan-last", "inf"],
    )
    def test_non_finite_spectrum_rejected(self, lam):
        for constant in (conjectured_constant, loose_constant):
            with pytest.raises(InvalidStateError, match="non-finite"):
                constant(lam)

    @pytest.mark.parametrize(
        "fn",
        [conjectured_constant, loose_constant, equality_witness, maximize_ratio],
        ids=lambda fn: fn.__name__,
    )
    def test_one_level_state_rejected(self, fn):
        # the rule for raw spectra holds for a DensityMatrix too
        with pytest.raises(DimensionMismatchError, match="dimension must be >= 2"):
            fn(DensityMatrix(np.array([[1.0 + 0j]])))

    @pytest.mark.parametrize(
        "raw",
        [np.array([[0.6, 0.1], [0.1, 0.4]]), np.diag([0.2, 0.3, 0.5])],
        ids=["2x2", "diag-3"],
    )
    def test_raw_state_equals_density_matrix(self, raw):
        # a raw matrix is a state, not a spectrum of its d^2 entries
        state = DensityMatrix(raw)
        for constant in (conjectured_constant, loose_constant):
            assert constant(raw) == constant(state)
        for got, want in zip(equality_witness(raw), equality_witness(state)):
            np.testing.assert_array_equal(got.matrix, want.matrix)
        options = dict(restarts=2, max_iters=50)
        got = maximize_ratio(raw, rng=np.random.default_rng(SEED), **options)
        want = maximize_ratio(state, rng=np.random.default_rng(SEED), **options)
        assert got.achieved_ratio == want.achieved_ratio
        assert got.achieved_ratio == pytest.approx(conjectured_constant(state), rel=1e-9)

    def test_loose_never_below_conjectured(self):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            lam = np.sort(rng.dirichlet(np.ones(d)))
            if lam[0] <= 0:
                continue
            assert loose_constant(lam) >= conjectured_constant(lam) - 1e-9


class TestEqualityWitness:
    def test_three_level_exact(self):
        a, b = equality_witness(RHO123)
        assert ratio(a, b, RHO123) == pytest.approx(9.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(2)
        a, b = equality_witness(rho)
        assert ratio(a, b, rho) == pytest.approx(4.0, abs=1e-12)

    def test_norm_identities(self):
        # |[A,B]|_rho^2 = (l1+l2)^3, |A|_rho^2 = l1 l2 (l1+l2), |B|_rho^2 = l1+l2
        rng = np.random.default_rng(SEED + 1)
        for _ in range(50):
            d = int(rng.integers(2, 8))
            lam = np.sort(rng.dirichlet(np.ones(d)))
            if lam[0] < 1e-6:
                continue
            rho = DensityMatrix.from_spectrum(lam)
            a, b = equality_witness(rho)
            l1, l2 = float(lam[0]), float(lam[1])
            assert weighted_norm_sq(b, rho) == pytest.approx(l1 + l2, rel=1e-10)
            assert weighted_norm_sq(a, rho) == pytest.approx(l1 * l2 * (l1 + l2), rel=1e-10)
            assert weighted_norm_sq(commutator(a, b), rho) == pytest.approx(
                (l1 + l2) ** 3, rel=1e-10
            )

    def test_degenerate_bottom_pair(self):
        # l1 = l2 = lam: ratio 2/lam regardless of the eigenvector gauge
        rho = DensityMatrix.from_spectrum([0.2, 0.2, 0.6])
        a, b = equality_witness(rho)
        assert ratio(a, b, rho) == pytest.approx(10.0, abs=1e-10)

    def test_rank_deficient_rejected(self):
        with pytest.raises(InvalidStateError):
            equality_witness(DensityMatrix.from_spectrum([0.0, 1.0]))

    def test_witness_exactness_over_random_spectra(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(100):
            d = int(rng.integers(2, 11))
            lam = np.sort(rng.dirichlet(np.ones(d)))
            if lam[0] < 1e-9:
                continue
            rho = DensityMatrix.from_spectrum(lam)
            a, b = equality_witness(rho)
            achieved = ratio(a, b, rho)
            target = conjectured_constant(rho)
            assert abs(achieved / target - 1.0) < 1e-10


class TestRatio:
    def test_commuting_pair_vanishes(self):
        rho = RHO123
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        b = np.diag([-1.0, 0.5, 2.0]).astype(complex)
        assert ratio(a, b, rho) == pytest.approx(0.0, abs=1e-14)

    def test_pauli_pair_saturates_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(2)
        assert ratio(PAULI_X, PAULI_Y, rho) == pytest.approx(4.0)

    def test_seminorm_null_rejected(self):
        rho = DensityMatrix.from_spectrum([0.0, 0.2, 0.8])
        null = np.zeros((3, 3), dtype=complex)
        null[0, 0] = 1.0  # supported only on the kernel of rho
        with pytest.raises(ValueError):
            ratio(null, np.eye(3), rho)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(SEED + 3)
        rho = sample_density(3, "hilbert-schmidt", rng)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        base = ratio(a, b, rho)
        assert ratio(2.5 * a, b, rho) == pytest.approx(base, rel=1e-12)
        assert ratio(a, -0.3j * b, rho) == pytest.approx(base, rel=1e-12)
        for s in (1e-9, 1e4, 1e8):
            assert ratio(s * a, b, rho) == pytest.approx(base, rel=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            rho = sample_density(d, "hilbert-schmidt", rng)
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u = sample_unitary(d, rng)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            base = ratio(a, b, rho)
            moved = ratio(u @ a @ u.conj().T, u @ b @ u.conj().T, rotated)
            assert moved == pytest.approx(base, rel=1e-10)


class TestMaximizeRatio:
    def test_qubit_reaches_conjectured_constant(self):
        rng = np.random.default_rng(SEED + 5)
        for trial in range(5):
            rho = sample_density(2, "hilbert-schmidt", rng)
            if rho.spectrum[0] < 1e-6:
                continue
            result = maximize_ratio(rho, restarts=2, rng=rng)
            assert result.relative_deviation < 1e-6
            assert result.converged

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_higher_dims_reach_conjectured_constant(self, d):
        rng = np.random.default_rng(SEED + 6 + d)
        lam = np.sort(rng.dirichlet(np.ones(d)))
        rho = DensityMatrix.from_spectrum(lam)
        result = maximize_ratio(rho, restarts=2, rng=rng)
        assert result.relative_deviation < 1e-6
        assert result.achieved_ratio <= result.loose_constant * (1 + 1e-9)

    def test_trace_is_monotone(self):
        rng = np.random.default_rng(SEED + 7)
        rho = sample_density(4, "hilbert-schmidt", rng)
        result = maximize_ratio(rho, restarts=3, rng=rng)
        trace = np.array(result.trace)
        dips = np.diff(trace)
        assert np.all(dips >= -1e-12 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_result_reproducible_from_reported_matrices(self):
        rng = np.random.default_rng(SEED + 8)
        rho = sample_density(3, "hilbert-schmidt", rng)
        result = maximize_ratio(rho, restarts=2, rng=rng)
        replayed = ratio(result.witness_a, result.witness_b, rho)
        assert abs(replayed - result.achieved_ratio) < 1e-9

    def test_hermitian_mode_bounded_by_complex_mode(self):
        rho = RHO123
        herm = maximize_ratio(rho, restarts=3, rng=np.random.default_rng(SEED + 9))
        comp = maximize_ratio(
            rho, restarts=3, mode="complex", rng=np.random.default_rng(SEED + 10)
        )
        assert herm.achieved_ratio <= comp.achieved_ratio * (1 + 1e-6)
        assert herm.relative_deviation < 1e-6
        assert comp.relative_deviation < 1e-6

    def test_hermitian_mode_returns_hermitian_matrices(self):
        result = maximize_ratio(RHO123, restarts=1, rng=np.random.default_rng(SEED + 11))
        for m in (result.witness_a, result.witness_b):
            assert np.linalg.norm(m - m.conj().T) < 1e-10

    def test_maximally_mixed_reaches_twice_dim(self):
        for d in (2, 3, 4):
            rho = DensityMatrix.maximally_mixed(d)
            result = maximize_ratio(rho, restarts=2, rng=np.random.default_rng(SEED + 12 + d))
            assert result.achieved_ratio == pytest.approx(2.0 * d, rel=1e-8)

    def test_random_starts_alone_find_the_constant(self):
        # without the analytic seed the optimizer must discover the supremum
        rng = np.random.default_rng(SEED + 20)
        for d in (2, 3, 4):
            lam = np.sort(rng.dirichlet(np.ones(d)))
            rho = DensityMatrix.from_spectrum(lam)
            result = maximize_ratio(rho, restarts=4, rng=rng, seed_witness=False)
            assert result.relative_deviation < 1e-6
            assert result.achieved_ratio <= result.conjectured_constant * (1 + 1e-6)

    def test_witnessless_mode_requires_restarts(self):
        with pytest.raises(ValueError):
            maximize_ratio(RHO123, restarts=0, seed_witness=False, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_iteration_cap_below_one_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            maximize_ratio(RHO123, restarts=1, max_iters=max_iters, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, np.nan, np.inf])
    def test_negative_or_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            maximize_ratio(RHO123, restarts=1, tol=tol, rng=np.random.default_rng(0))

    def test_zero_tol_accepted(self):
        result = maximize_ratio(RHO123, restarts=0, tol=0.0, rng=np.random.default_rng(0))
        assert result.relative_deviation < 1e-12

    def test_negative_restarts_rejected(self):
        with pytest.raises(ValueError, match="restarts"):
            maximize_ratio(RHO123, restarts=-1, rng=np.random.default_rng(0))

    def test_rank_deficient_rejected(self):
        with pytest.raises(InvalidStateError):
            maximize_ratio(
                DensityMatrix.from_spectrum([0.0, 0.5, 0.5]), rng=np.random.default_rng(0)
            )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            maximize_ratio(RHO123, mode="quaternionic", rng=np.random.default_rng(0))


class TestHalfStep:
    @pytest.mark.parametrize("mode", ["hermitian", "complex"])
    @pytest.mark.parametrize("ensemble", ["spectrum", "hilbert-schmidt"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_dense_reference(self, d, ensemble, mode):
        rng = np.random.default_rng(SEED + 30 + d)
        if ensemble == "spectrum":
            rho = DensityMatrix.from_spectrum(np.sort(rng.dirichlet(np.ones(d))))
        else:
            rho = sample_density(d, "hilbert-schmidt", rng)
        problem = _RatioProblem(rho, mode)
        b = problem.random_start(rng)
        b = b / math.sqrt(weighted_norm_sq(b, rho))
        current = problem.to_eigenbasis(b)
        for side in ("a", "b", "a"):
            _, optimum = reference_half_step(rho, mode, b, side)
            current, value = problem.half_step(current)
            new = problem.from_eigenbasis(current)
            assert value == pytest.approx(optimum, rel=1e-12)
            assert ratio(new, b, rho) == pytest.approx(value, rel=1e-12)
            assert weighted_norm_sq(new, rho) == pytest.approx(1.0, rel=1e-12)
            if mode == "hermitian":
                assert np.array_equal(current, current.conj().T)
            b = new

    def test_reported_ratio_must_match_ascent(self, monkeypatch):
        # rotating back with V^dag X V instead of V X V^dag breaks the pair
        def wrong_way(self, m):
            return self.vectors.conj().T @ m @ self.vectors

        monkeypatch.setattr(_RatioProblem, "from_eigenbasis", wrong_way)
        rho = sample_density(4, "hilbert-schmidt", np.random.default_rng(SEED + 40))
        with pytest.raises(NumericalConsistencyError, match="disagrees"):
            maximize_ratio(rho, restarts=1, rng=np.random.default_rng(SEED + 41))


class TestIllConditionedSpectra:
    """Spectra whose smallest eigenvalue sits many decades below the rest.

    The diagonal rescaling of a half step then reaches 1/sqrt(lam_min).
    """

    @staticmethod
    def state(d, lam_min):
        rest = np.arange(1.0, d)
        return DensityMatrix.from_spectrum(
            np.concatenate([[lam_min], (1.0 - lam_min) * rest / rest.sum()])
        )

    @pytest.mark.parametrize("lam_min", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("d", [3, 5])
    def test_witness_start(self, d, lam_min):
        result = maximize_ratio(
            self.state(d, lam_min), restarts=2, rng=np.random.default_rng(SEED + 50)
        )
        assert result.relative_deviation <= 1e-12

    @pytest.mark.parametrize("lam_min", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("d", [3, 5])
    def test_random_starts_alone(self, d, lam_min):
        result = maximize_ratio(
            self.state(d, lam_min),
            restarts=4,
            max_iters=200,
            rng=np.random.default_rng(SEED + 51),
            seed_witness=False,
        )
        assert result.relative_deviation <= 1e-9


class TestSerialization:
    def test_matrix_pairs_round_trip(self):
        rng = np.random.default_rng(SEED + 13)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(matrix_from_pairs(matrix_to_pairs(m)), m, atol=0)

    def test_record_is_json_ready(self):
        result = maximize_ratio(RHO123, restarts=1, rng=np.random.default_rng(SEED + 14))
        record = result_record(result)
        text = json.dumps(record, sort_keys=True)
        parsed = json.loads(text)
        assert parsed["dim"] == 3
        assert parsed["mode"] == "hermitian"
        assert not parsed["exceeds_conjecture"]
        np.testing.assert_allclose(
            matrix_from_pairs(parsed["witness_a"]), result.witness_a, atol=1e-15
        )
