"""Conjecture optimizer: constants, witnesses, ratio, alternating maximization."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from commutator_bounds import (
    DensityMatrix,
    DimensionMismatchError,
    EigensolverError,
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
from commutator_bounds import optimizer
from commutator_bounds.optimizer import _RatioProblem, _ascend, _witness_pair

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
        problem = _RatioProblem(rho.spectrum, mode)
        v = rho.eigenvectors
        b = problem.random_start(rng)
        b = b / math.sqrt(weighted_norm_sq(b, rho))
        current = v.conj().T @ b @ v
        for side in ("a", "b", "a"):
            _, optimum = reference_half_step(rho, mode, b, side)
            current, value = problem.half_step(current)
            new = v @ current @ v.conj().T
            assert value == pytest.approx(optimum, rel=1e-12)
            assert ratio(new, b, rho) == pytest.approx(value, rel=1e-12)
            assert weighted_norm_sq(new, rho) == pytest.approx(1.0, rel=1e-12)
            if mode == "hermitian":
                assert np.array_equal(current, current.conj().T)
            b = new

    def test_reported_ratio_must_match_ascent(self, monkeypatch):
        # rotating back with V^dag X V instead of V X V^dag breaks the pair
        def wrong_way(vectors, m):
            return vectors.conj().T @ m @ vectors

        monkeypatch.setattr(optimizer, "_from_eigenbasis", wrong_way)
        rho = sample_density(4, "hilbert-schmidt", np.random.default_rng(SEED + 40))
        with pytest.raises(NumericalConsistencyError, match="disagrees"):
            maximize_ratio(rho, restarts=1, rng=np.random.default_rng(SEED + 41))


class TestAssembledForm:
    """The form a half step hands to the eigensolver, against G built densely from
    K = I ox B^T - B ox I and scaled by root[row] / root[col]: K itself in complex
    mode, Re(iK + K T) = K.real with transposed columns minus K.imag in Hermitian mode."""

    @staticmethod
    def dense_form(rho, mode, b):
        d = rho.dim
        lam = rho.spectrum
        eye = np.eye(d)
        k = np.kron(eye, b.T) - np.kron(b, eye)
        if mode == "hermitian":
            transposed = np.arange(d * d).reshape(d, d).T.ravel()
            g = k.real[:, transposed] - k.imag
            root = np.sqrt((lam[:, None] + lam[None, :]) / 2.0).ravel()
        else:
            g = k
            root = np.sqrt(np.tile(lam, d))
        g = g * (root[:, None] / root[None, :])
        return g.conj().T @ g

    @pytest.mark.parametrize("mode", ["hermitian", "complex"])
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 15])
    def test_form_matches_the_kronecker_reference(self, d, mode, monkeypatch):
        top_pair = optimizer._top_pair
        forms = []

        def capturing(form, warm):
            forms.append(form.copy())
            return top_pair(form, warm)

        monkeypatch.setattr(optimizer, "_top_pair", capturing)
        rng = np.random.default_rng(SEED + 50 + d)
        rho = sample_density(d, "hilbert-schmidt", rng)
        problem = _RatioProblem(rho.spectrum, mode)
        for _ in range(3):
            b = problem.random_start(rng)
            forms.clear()
            problem.half_step(b)
            assert len(forms) == 1
            want = self.dense_form(rho, mode, b)
            if mode == "complex":
                # bit for bit, signed zeros included
                assert forms[0].tobytes() == want.tobytes()
            else:
                scale = np.abs(want).max()
                np.testing.assert_allclose(forms[0], want, rtol=0.0, atol=1e-15 * scale)


def ascent_inputs(lam, mode, rng, sweeps=3):
    """The (form, warm) pairs that ``_top_pair`` receives over ``sweeps`` sweeps of an
    ascent from a random start, the first one without a warm start."""
    top_pair = optimizer._top_pair
    inputs = []

    def capturing(form, warm):
        inputs.append((form.copy(), None if warm is None else warm.copy()))
        return top_pair(form, warm)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_top_pair", capturing)
        problem = _RatioProblem(lam, mode)
        _ascend(problem, None, problem.random_start(rng), sweeps, 0.0)
    return inputs


def assert_certified_top(form, value, vector):
    """``(value, vector)`` is a top eigenpair of ``form`` as far as the solver's bounds go.

    The residual bound is the rounding of a computed residual, n eps |||F| |u|||
    (written out here, not read from the optimizer); twice it allows for this
    residual's own rounding.  The certificate puts the top eigenvalue below
    value + 2 |r| + floor, so within 3 floors of ``value``, and the reference
    ``eigvalsh`` adds its own n eps |F|.
    """
    n = form.shape[0]
    eps = np.finfo(float).eps
    floor = n * eps * np.linalg.norm(np.abs(form) @ np.abs(vector))
    top = np.linalg.eigvalsh(form)[-1]
    assert abs(np.linalg.norm(vector) - 1.0) <= n * eps
    assert np.linalg.norm(form @ vector - value * vector) <= 2.0 * floor
    assert abs(value - top) <= 3.0 * floor + n * eps * top


class TestTopPair:
    """The half step's eigensolver returns the certified top eigenpair: through the
    dense ``eigh`` or the warm-started Krylov block, whichever the input selects."""

    @pytest.mark.parametrize("mode", ["hermitian", "complex"])
    @pytest.mark.parametrize("d", range(2, 16))
    def test_top_matches_dense_eigh_with_and_without_a_warm_start(self, d, mode):
        rng = np.random.default_rng(SEED + 70 + d)
        lam = sample_density(d, "hilbert-schmidt", rng).spectrum
        inputs = ascent_inputs(lam, mode, rng)
        assert inputs[0][1] is None and all(warm is not None for _, warm in inputs[1:])
        for form, warm in inputs:
            assert_certified_top(form, *optimizer._top_pair(form, warm))
            assert_certified_top(form, *optimizer._top_pair(form, None))

    @pytest.mark.parametrize("mode", ["hermitian", "complex"])
    def test_witness_start_breaks_the_block_down_at_its_first_product(self, mode, monkeypatch):
        # the witness A is an exact top eigenvector of its B's form: the span stops at
        # {x}, with no division by a vanishing direction
        lam = np.sort(np.random.default_rng(SEED + 71).dirichlet(np.ones(8)))
        problem = _RatioProblem(lam, mode)
        a, b = (m / math.sqrt(weighted_norm_sq(m, problem.weight)) for m in _witness_pair(lam))
        matmul, products = np.matmul, []

        def counting(*args, **kwargs):  # the block's products F q are its np.matmul calls
            products.append(None)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counting)
        new, value = problem.half_step(b, a)
        assert len(products) == 1
        assert value == pytest.approx(conjectured_constant(lam), rel=1e-13)
        overlap = np.vdot(new * lam, a)  # <new, a> in the weighted inner product
        assert abs(overlap) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("mode", ["hermitian", "complex"])
    def test_degenerate_top_at_the_maximally_mixed_state(self, mode):
        lam = np.full(8, 1.0 / 8)
        rng = np.random.default_rng(SEED + 72)
        for form, warm in ascent_inputs(lam, mode, rng):
            assert_certified_top(form, *optimizer._top_pair(form, warm))
        result = maximize_ratio(np.eye(8) / 8, restarts=2, max_iters=50, mode=mode, rng=rng)
        assert result.achieved_ratio == pytest.approx(16.0, rel=1e-12)

    def test_warm_start_orthogonal_to_the_top_is_caught_by_the_certificate(self, monkeypatch):
        # F = 1.2 lam_max(W) + W on e_0 and its complement: Krylov products of a start with
        # no e_0 part keep exactly none, so the block converges to W's top, below F's
        n = 64
        rng = np.random.default_rng(SEED + 73)
        h = rng.standard_normal((n - 1, n - 1))
        w = h @ h.T
        form = np.zeros((n, n))
        form[1:, 1:] = w
        form[0, 0] = 1.2 * np.linalg.eigvalsh(w)[-1]
        warm = np.concatenate([[0.0], rng.standard_normal(n - 1)])
        cholesky = np.linalg.cholesky
        outcomes = []

        def recording(a):
            try:
                factor = cholesky(a)
            except np.linalg.LinAlgError:
                outcomes.append("failed")
                raise
            outcomes.append("passed")
            return factor

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        value, vector = optimizer._top_pair(form, warm)
        assert outcomes == ["failed"]
        assert value == pytest.approx(form[0, 0], rel=1e-14)
        assert abs(vector[0]) == pytest.approx(1.0, rel=1e-14)
        assert_certified_top(form, value, vector)


@pytest.fixture(
    scope="module",
    params=[
        (d, mode, ensemble)
        for d in (2, 3, 4, 5)
        for mode in ("hermitian", "complex")
        for ensemble in ("spectrum", "hilbert-schmidt")
    ],
    ids=lambda p: "-".join(map(str, p)),
)
def reported_pair(request):
    """A state and the result ``maximize_ratio`` reports for it."""
    d, mode, ensemble = request.param
    rng = np.random.default_rng(SEED + 60 + d)
    if ensemble == "spectrum":
        rho = DensityMatrix.from_spectrum(np.sort(rng.dirichlet(np.ones(d))))
    else:
        rho = sample_density(d, "hilbert-schmidt", rng)
    return rho, maximize_ratio(rho, restarts=2, mode=mode, rng=rng)


class TestCommutingUnitaries:
    """Conjugating a pair by a unitary that commutes with rho leaves R unchanged.

    These are zero modes of R, so the reported pair is one maximiser of a family,
    and another half-step basis may report another member of it.
    """

    @settings(max_examples=25, deadline=None)
    @given(phases=st.lists(st.floats(-math.pi, math.pi), min_size=5, max_size=5))
    def test_ratio_is_unchanged(self, reported_pair, phases):
        rho, result = reported_pair
        v = rho.eigenvectors
        u = v @ np.diag(np.exp(1j * np.array(phases[: rho.dim]))) @ v.conj().T
        a, b = (u @ m @ u.conj().T for m in (result.witness_a, result.witness_b))
        assert ratio(a, b, rho) == pytest.approx(result.achieved_ratio, rel=1e-12)


class TestEigensolverFailure:
    """A start whose half-step eigensolver fails is logged and dropped; with none left,
    ``maximize_ratio`` raises."""

    @staticmethod
    def fail_calls(monkeypatch, failing):
        """Make the half step's eigensolver raise on the 1-based calls that ``failing`` accepts."""
        top_pair = optimizer._top_pair
        calls = []

        def flaky(form, warm):
            calls.append(None)
            if failing(len(calls)):
                raise np.linalg.LinAlgError("forced failure")
            return top_pair(form, warm)

        monkeypatch.setattr(optimizer, "_top_pair", flaky)

    def test_failed_witness_start_is_discarded(self, monkeypatch, caplog):
        rho = sample_density(3, "hilbert-schmidt", np.random.default_rng(SEED + 45))
        want = maximize_ratio(
            rho, restarts=2, max_iters=20, rng=np.random.default_rng(SEED + 46), seed_witness=False
        )
        # the witness start runs first, and its first half step is the first call
        self.fail_calls(monkeypatch, lambda call: call == 1)
        with caplog.at_level("WARNING", logger="commutator_bounds.optimizer"):
            got = maximize_ratio(rho, restarts=2, max_iters=20, rng=np.random.default_rng(SEED + 46))
        assert "start 0 discarded: half-step eigenproblem failed: forced failure" in caplog.text
        assert got.restarts_used == 2
        assert got.achieved_ratio == want.achieved_ratio
        assert got.trace == want.trace

    def test_every_start_failing_raises(self, monkeypatch):
        rho = sample_density(3, "hilbert-schmidt", np.random.default_rng(SEED + 47))
        self.fail_calls(monkeypatch, lambda call: True)
        with pytest.raises(EigensolverError, match="every start failed"):
            maximize_ratio(rho, restarts=2, rng=np.random.default_rng(SEED + 48))


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
    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_witness_start(self, d, lam_min):
        result = maximize_ratio(
            self.state(d, lam_min), restarts=2, rng=np.random.default_rng(SEED + 50)
        )
        assert result.relative_deviation <= 1e-12

    @pytest.mark.parametrize("lam_min", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_random_starts_alone(self, d, lam_min):
        result = maximize_ratio(
            self.state(d, lam_min),
            restarts=4,
            max_iters=200,
            rng=np.random.default_rng(SEED + 51),
            seed_witness=False,
        )
        assert result.relative_deviation <= 1e-9


class TestExceedance:
    @pytest.mark.parametrize("excess, exceeds", [(1e-4, True), (1e-7, False)])
    def test_exceeds_conjecture_above_its_slack(self, excess, exceeds):
        result = maximize_ratio(RHO123, restarts=0, rng=np.random.default_rng(SEED + 15))
        above = dataclasses.replace(
            result, achieved_ratio=result.conjectured_constant * (1.0 + excess)
        )
        assert above.exceeds_conjecture is exceeds
        assert result_record(above)["exceeds_conjecture"] is exceeds


class TestAscentChecks:
    """The ascent's monotonicity and consistency checks catch gaps far below the slacks
    they could be loosened to (1e-3 and 1e-2)."""

    def test_dip_across_a_half_step_raises(self, monkeypatch):
        step = _RatioProblem.half_step
        values = []

        def dipping(self, other, warm):
            new, value = step(self, other, warm)
            if values:
                value = values[-1] * (1.0 - 1e-9)
            values.append(value)
            return new, value

        monkeypatch.setattr(_RatioProblem, "half_step", dipping)
        with pytest.raises(NumericalConsistencyError, match="ratio decreased across a half step"):
            maximize_ratio(RHO123, restarts=1, seed_witness=False,
                           rng=np.random.default_rng(SEED + 16))
        assert len(values) == 2

    def test_reported_pair_off_the_ascent_by_1e_6_raises(self, monkeypatch):
        # without the witness start the ratio is evaluated once, on the reported pair
        monkeypatch.setattr(
            "commutator_bounds.optimizer.ratio", lambda a, b, rho: ratio(a, b, rho) * (1 + 1e-6)
        )
        with pytest.raises(NumericalConsistencyError, match="disagrees with the ascent"):
            maximize_ratio(RHO123, restarts=1, seed_witness=False,
                           rng=np.random.default_rng(SEED + 17))


class TestVerdictChecks:
    """The ceiling check, the convergence test and the choice of the best start, each on a
    case just past the line it draws."""

    def test_ratio_above_the_proven_ceiling_raises(self, monkeypatch):
        # a ceiling 1e-6 below the achieved ratio is far above CEILING_SLACK's 1e-9
        achieved = maximize_ratio(RHO123, restarts=1, rng=np.random.default_rng(SEED + 18))
        ceiling = achieved.achieved_ratio / (1.0 + 1e-6)
        monkeypatch.setattr(optimizer, "loose_constant", lambda rho: ceiling)
        with pytest.raises(NumericalConsistencyError, match="exceeds the proven ceiling"):
            maximize_ratio(RHO123, restarts=1, rng=np.random.default_rng(SEED + 18))

    class CreepingProblem:
        """A stand-in for ``_RatioProblem`` whose k-th half step returns 1 + k * ``step``:
        a relative gain of about 2 * ``step`` per sweep, for ever."""

        def __init__(self, step):
            self.weight, self.step, self.calls = RHO123.matrix, step, 0

        def half_step(self, other, warm):
            self.calls += 1
            return other, 1.0 + self.calls * self.step

    @pytest.mark.parametrize("step, converged", [(2.5e-10, False), (2.5e-11, True)])
    def test_convergence_is_a_relative_gain_below_tol(self, step, converged):
        b0 = np.eye(3, dtype=complex)
        *_, iterations, got = _ascend(self.CreepingProblem(step), None, b0, 10, 1e-10)
        assert got is converged
        assert iterations == (2 if converged else 10)

    def test_tied_starts_report_the_first(self, monkeypatch):
        # every start returns the witness pair at one ratio, with its own iteration count
        wa, wb = (np.array(m.matrix) for m in equality_witness(RHO123))
        value = ratio(wa, wb, RHO123)
        counts = []

        def tied(problem, a0, b0, max_iters, tol):
            counts.append(len(counts) + 1)
            return wa, wb, value, [value], counts[-1], True

        monkeypatch.setattr(optimizer, "_ascend", tied)
        result = maximize_ratio(RHO123, restarts=3, rng=np.random.default_rng(SEED + 19))
        assert counts == [1, 2, 3, 4]
        assert result.iterations == 1


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
