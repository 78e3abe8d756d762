"""Bounds engine: variances, skew information, the five bounds, qubit closed forms."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commutator_bounds import (
    BOUND_NAMES,
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    NotHermitianError,
    NumericalConsistencyError,
    Observable,
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
    classical_uncertainty,
    commutator,
    expectation,
    qubit_bounds_closed_form,
    qubit_closed_form_batch,
    qubit_commutator_norm_identity,
    ratio,
    sample_density,
    sample_density_batch,
    sample_hermitian,
    sample_hermitian_batch,
    sample_unit_vectors,
    sample_unitary,
    skew_information,
    variance,
    violation_masks,
    weighted_norm_sq,
)

SEED = 20240903

COLUMNS = ("product", "robertson", "schrodinger", "luo_park", "bound1", "bound2", "purity")

RHO_QUARTER = DensityMatrix.from_spectrum([0.25, 0.75])
MIXED = DensityMatrix.maximally_mixed(2)
SX = Observable(PAULI_X)
SY = Observable(PAULI_Y)
SZ = Observable(PAULI_Z)


def cross_trace_oracle(x, rho):
    """Tr(sqrt(rho) X sqrt(rho) X) as sum_jk sqrt(lam_j lam_k) |X_jk|^2 in the eigenbasis."""
    lam = rho.spectrum
    vecs = rho.eigenvectors
    xt = vecs.conj().T @ np.asarray(getattr(x, "matrix", x)) @ vecs
    root = np.sqrt(lam)
    return float(np.einsum("j,k,jk->", root, root, np.abs(xt) ** 2))


class TestExpectationVariance:
    def test_pauli_z_at_maximal_mixing(self):
        assert expectation(SZ, MIXED) == pytest.approx(0.0, abs=1e-15)

    def test_pauli_z_on_diagonal_state(self):
        # ascending diag(1/4, 3/4) with sigma_z = diag(1, -1): <sigma_z> = 1/4 - 3/4.
        assert expectation(SZ, RHO_QUARTER) == pytest.approx(-0.5)

    def test_identity_expectation(self):
        rng = np.random.default_rng(SEED)
        rho = sample_density(4, "hilbert-schmidt", rng)
        assert expectation(np.eye(4), rho) == pytest.approx(1.0)

    def test_variance_pauli_x_maximally_mixed(self):
        assert variance(SX, MIXED) == pytest.approx(1.0)

    def test_variance_eigenstate_vanishes(self):
        assert variance(SZ, DensityMatrix.from_bloch([0, 0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_variance_pauli_x_on_diagonal_state(self):
        assert variance(SX, RHO_QUARTER) == pytest.approx(1.0)

    def test_variance_matches_centered_norm(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            x = sample_hermitian(d, rng)
            rho = sample_density(d, "hilbert-schmidt", rng)
            centered = x.matrix - expectation(x, rho) * np.eye(d)
            assert variance(x, rho) == pytest.approx(weighted_norm_sq(centered, rho), abs=1e-10)

    def test_large_hermitian_entries_accepted(self):
        # the trace's round-off grows with the entries; near 1e7 it exceeds 1e-10 absolute
        rng = np.random.default_rng(SEED + 50)
        for _ in range(10):
            x = sample_hermitian(8, rng).matrix
            rho = sample_density(8, "hilbert-schmidt", rng)
            assert expectation(1e7 * x, rho) == pytest.approx(1e7 * expectation(x, rho), rel=1e-9)

    def test_non_hermitian_observable_raises(self):
        rng = np.random.default_rng(SEED + 51)
        x = sample_hermitian(3, rng).matrix + 1e-6j * np.eye(3)
        with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
            expectation(x, sample_density(3, "hilbert-schmidt", rng))

    @pytest.mark.parametrize(
        "x, rho",
        [([[np.nan, 0], [0, 1]], MIXED), (np.eye(2), [[np.nan, 0], [0, 1]])],
        ids=["X", "rho"],
    )
    def test_non_finite_input_raises(self, x, rho):
        with pytest.raises(NumericalConsistencyError, match="non-finite"):
            expectation(x, rho)


class TestSkewInformation:
    def test_commuting_pair_vanishes(self):
        assert skew_information(SZ, RHO_QUARTER) == pytest.approx(0.0, abs=1e-13)

    def test_pauli_x_on_diagonal_state(self):
        # 1 - sum_jk sqrt(lam_j lam_k) |X_jk|^2 = 1 - 2 sqrt(3/16) = 1 - sqrt(3)/2
        expected = 1.0 - cross_trace_oracle(SX, RHO_QUARTER)
        assert expected == pytest.approx(1.0 - np.sqrt(3.0) / 2.0, abs=1e-14)
        assert skew_information(SX, RHO_QUARTER) == pytest.approx(expected, abs=1e-12)

    def test_pure_state_skew_equals_variance(self):
        rho = DensityMatrix.from_bloch([0, 0, 1.0])
        assert skew_information(SX, rho) == pytest.approx(1.0, abs=1e-12)
        assert skew_information(SX, rho) == pytest.approx(variance(SX, rho), abs=1e-12)

    def test_between_zero_and_variance(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            x = sample_hermitian(d, rng)
            rho = sample_density(d, "hilbert-schmidt", rng)
            skew = skew_information(x, rho)
            assert -1e-12 <= skew <= variance(x, rho) + 1e-10

    def test_classical_uncertainty_oracle(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            x = sample_hermitian(d, rng)
            rho = sample_density(d, "hilbert-schmidt", rng)
            expected = cross_trace_oracle(x, rho) - expectation(x, rho) ** 2
            assert classical_uncertainty(x, rho) == pytest.approx(expected, abs=1e-10)


class TestIndividualBounds:
    def test_robertson_trivial_at_maximal_mixing(self):
        assert bound_robertson(SX, SY, MIXED) == pytest.approx(0.0, abs=1e-15)

    def test_robertson_half_z(self):
        rho = DensityMatrix.from_bloch([0, 0, 0.5])
        assert bound_robertson(SX, SY, rho) == pytest.approx(0.25, abs=1e-13)

    def test_robertson_commuting_pair(self):
        rng = np.random.default_rng(SEED + 4)
        rho = sample_density(2, "hilbert-schmidt", rng)
        assert bound_robertson(SZ, SZ, rho) == pytest.approx(0.0, abs=1e-13)

    def test_schrodinger_anticommuting_at_maximal_mixing(self):
        assert bound_schrodinger(SX, SY, MIXED) == pytest.approx(0.0, abs=1e-15)

    def test_schrodinger_half_z(self):
        rho = DensityMatrix.from_bloch([0, 0, 0.5])
        assert bound_schrodinger(SX, SY, rho) == pytest.approx(0.25, abs=1e-13)

    def test_schrodinger_self_pair_is_variance_squared(self):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(20):
            x = sample_hermitian(3, rng)
            rho = sample_density(3, "hilbert-schmidt", rng)
            assert bound_schrodinger(x, x, rho) == pytest.approx(variance(x, rho) ** 2, rel=1e-9)

    def test_luo_park_maximally_mixed(self):
        assert bound_luo_park(SX, SY, MIXED) == pytest.approx(1.0, abs=1e-12)

    def test_luo_park_diagonal_state(self):
        # robertson 1/4 plus factors sqrt(3)/2 each: 1/4 + 3/4 = 1.
        assert bound_luo_park(SX, SY, RHO_QUARTER) == pytest.approx(1.0, abs=1e-12)

    def test_luo_park_pure_state_reduces_to_robertson(self):
        rho = DensityMatrix.from_bloch([0, 0, 1.0])
        assert bound_luo_park(SX, SY, rho) == pytest.approx(
            bound_robertson(SX, SY, rho), abs=1e-11
        )

    def test_bound_one_values(self):
        assert bound_one(SX, SY, MIXED) == pytest.approx(1.0, abs=1e-12)
        assert bound_one(SX, SY, RHO_QUARTER) == pytest.approx(1.0 / 6.0, abs=1e-12)
        pure = DensityMatrix.from_bloch([0, 0, 1.0])
        assert bound_one(SX, SY, pure) == pytest.approx(0.0, abs=1e-12)

    def test_bound_two_values(self):
        assert bound_two(SX, SY, MIXED) == pytest.approx(1.0, abs=1e-12)
        assert bound_two(SX, SY, RHO_QUARTER) == pytest.approx(0.75, abs=1e-12)
        pure = DensityMatrix.from_bloch([0, 0, 1.0])
        assert bound_two(SX, SY, pure) == pytest.approx(0.0, abs=1e-12)

    def test_bound_two_double_degenerate(self):
        rho = DensityMatrix.from_spectrum([0.0, 0.0, 1.0])
        a = sample_hermitian(3, np.random.default_rng(SEED + 6))
        b = sample_hermitian(3, np.random.default_rng(SEED + 7))
        assert bound_two(a, b, rho) == 0.0


class TestBoundReport:
    def test_orderings_and_hard_inequalities(self):
        rng = np.random.default_rng(SEED + 8)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            a = sample_hermitian(d, rng)
            b = sample_hermitian(d, rng)
            rho = sample_density(d, "hilbert-schmidt", rng)
            rep = bound_report(a, b, rho)
            slack = 1e-12 * max(1.0, rep.product)
            assert rep.schrodinger >= rep.robertson - slack
            assert rep.luo_park >= rep.robertson - slack
            assert rep.bound2 >= rep.bound1 - slack
            for value in (rep.robertson, rep.schrodinger, rep.luo_park, rep.bound1):
                assert rep.product >= value - 1e-10 * max(1.0, value)
            assert rep.conjecture_ok

    def test_scale_covariance(self):
        rng = np.random.default_rng(SEED + 9)
        a = sample_hermitian(3, rng)
        b = sample_hermitian(3, rng)
        rho = sample_density(3, "hilbert-schmidt", rng)
        base = bound_report(a, b, rho)
        s = 1.7
        scaled = bound_report(Observable(s * a.matrix), b, rho)
        for name in ("product", "robertson", "schrodinger", "luo_park", "bound1", "bound2"):
            assert getattr(scaled, name) == pytest.approx(s**2 * getattr(base, name), rel=1e-9)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(SEED + 10)
        n, d = 64, 4
        a = sample_hermitian_batch(d, n, rng)
        b = sample_hermitian_batch(d, n, rng)
        rho = sample_density_batch(d, n, rng)
        cols = batch_bounds(a, b, rho)
        for i in range(0, n, 7):
            rep = bound_report(a[i], b[i], DensityMatrix(rho[i]))
            for name in ("product", "robertson", "schrodinger", "luo_park", "bound1", "bound2"):
                assert cols[name][i] == pytest.approx(getattr(rep, name), rel=1e-9, abs=1e-12)
            assert cols["purity"][i] == pytest.approx(rep.purity, abs=1e-12)

    def test_violation_masks_clean_on_random_corpus(self):
        rng = np.random.default_rng(SEED + 11)
        n, d = 2000, 3
        cols = batch_bounds(
            sample_hermitian_batch(d, n, rng),
            sample_hermitian_batch(d, n, rng),
            sample_density_batch(d, n, rng),
        )
        masks = violation_masks(cols)
        assert not any(mask.any() for mask in masks.values())

    @pytest.mark.parametrize("product", [0.25, 4.0])
    @pytest.mark.parametrize("excess", [0.5, 2.0])
    def test_conjecture_verdict_is_the_mask(self, excess, product, monkeypatch, caplog):
        # bound2 lies `excess` slacks above the product: inside the slack, then beyond it
        from commutator_bounds import bounds

        b2 = product + excess * bounds.CONJECTURE_SLACK * product
        cols = dict.fromkeys(("robertson", "schrodinger", "luo_park", "bound1"), 0.0)
        cols.update(product=product, bound2=b2, purity=0.5)
        monkeypatch.setattr(bounds, "_single", lambda a, b, rho: dict(cols))
        monkeypatch.setattr(
            bounds, "qubit_closed_form_batch",
            lambda a, b, c: {name: np.array([value]) for name, value in cols.items()},
        )
        violated = bool(violation_masks({k: np.array([v]) for k, v in cols.items()})["bound2"][0])
        assert violated is (excess > 1.0)
        with caplog.at_level("WARNING", logger="commutator_bounds.bounds"):
            rep = bound_report(np.eye(2), np.eye(2), MIXED)
        assert rep.conjecture_ok is not violated
        assert ("conjectured inequality violated" in caplog.text) is violated
        closed = qubit_bounds_closed_form([1, 0, 0], [0, 1, 0], [0, 0, 0])
        assert closed.conjecture_ok is not violated

    def test_closed_form_logs_a_violated_conjecture(self, monkeypatch, caplog):
        from commutator_bounds import bounds

        cols = dict.fromkeys(("robertson", "schrodinger", "luo_park", "bound1"), 0.0)
        cols.update(product=0.25, bound2=0.5, purity=0.5)
        monkeypatch.setattr(
            bounds, "qubit_closed_form_batch",
            lambda a, b, c: {name: np.array([value]) for name, value in cols.items()},
        )
        with caplog.at_level("WARNING", logger="commutator_bounds.bounds"):
            rep = qubit_bounds_closed_form([1, 0, 0], [0, 1, 0], [0, 0, 0])
        assert not rep.conjecture_ok
        assert "conjectured inequality violated" in caplog.text


def _verdict_row(product, hard, conjectured):
    """One masks row: the four proven bounds ``hard`` and ``bound2`` ``conjectured``."""
    row = {name: np.array([hard]) for name in BOUND_NAMES}
    row.update(product=np.array([product]), bound2=np.array([conjectured]))
    return row


class TestViolationVerdict:
    def test_small_scale_violation_flags_every_bound(self):
        # each bound is 100x the product; an absolute slack of 1e-9 would hide all five
        masks = violation_masks(_verdict_row(1e-12, 1e-10, 1e-10))
        assert {name: bool(mask[0]) for name, mask in masks.items()} == dict.fromkeys(
            BOUND_NAMES, True
        )

    @settings(max_examples=50, deadline=None)
    @given(log_p=st.floats(min_value=-12.0, max_value=12.0), slacks=st.sampled_from([0.5, 2.0]))
    @example(log_p=-12.0, slacks=2.0)
    @example(log_p=12.0, slacks=0.5)
    def test_verdict_is_relative_at_every_scale(self, log_p, slacks):
        # `slacks` slacks above the product: relative to the bound for the proven four,
        # to the product for bound2
        from commutator_bounds import bounds

        p = 10.0**log_p
        hard = p / (1.0 - slacks * bounds.HARD_SLACK)
        conjectured = p * (1.0 + slacks * bounds.CONJECTURE_SLACK)
        masks = violation_masks(_verdict_row(p, hard, conjectured))
        assert {name: bool(mask[0]) for name, mask in masks.items()} == dict.fromkeys(
            BOUND_NAMES, slacks > 1.0
        )

    @pytest.mark.parametrize(
        "name, value, flagged",
        [("robertson", 1.0 + 1e-8, True), ("bound2", 1.0 + 1e-6, True),
         ("bound2", 1.0 + 1e-10, False)],
    )
    def test_slacks_in_absolute_numbers(self, name, value, flagged):
        # product 1: a proven bound flags above 1 + 1e-10, bound2 above 1 + 1e-9
        row = {key: np.array([0.0]) for key in BOUND_NAMES}
        row.update(product=np.array([1.0]), **{name: np.array([value])})
        masks = violation_masks(row)
        assert {key: bool(mask[0]) for key, mask in masks.items()} == {
            key: flagged and key == name for key in BOUND_NAMES
        }

    def test_zero_row_flags_nothing(self):
        masks = violation_masks(_verdict_row(0.0, 0.0, 0.0))
        assert not any(mask.any() for mask in masks.values())


def reference_batch_bounds(a, b, rho):
    """The batch columns from the defining traces, computed with dense einsums."""
    d = rho.shape[1]
    eye = np.eye(d)
    lam, vecs = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    sqrt_rho = np.einsum("nij,nj,nkj->nik", vecs, np.sqrt(lam), vecs.conj())
    mean_a = np.einsum("nij,nji->n", a, rho).real
    mean_b = np.einsum("nij,nji->n", b, rho).real
    ac = a - mean_a[:, None, None] * eye
    bc = b - mean_b[:, None, None] * eye
    var_a = np.einsum("nij,njk,nki->n", ac, ac, rho).real
    var_b = np.einsum("nij,njk,nki->n", bc, bc, rho).real
    cross = np.einsum("nij,njk,nki->n", ac, bc, rho)
    robertson = cross.imag**2
    cu_a = np.clip(np.einsum("nij,njk,nkl,nli->n", sqrt_rho, ac, sqrt_rho, ac).real, 0.0, None)
    cu_b = np.clip(np.einsum("nij,njk,nkl,nli->n", sqrt_rho, bc, sqrt_rho, bc).real, 0.0, None)
    comm = a @ b - b @ a
    comm_norm = np.einsum("nji,njk,nki->n", comm.conj(), comm, rho).real
    lam_m, lam_sm, lam_big = lam[:, 0], lam[:, 1], lam[:, -1]
    denom = lam_m + lam_sm
    prefactor = np.where(denom > 0.0, lam_m * lam_sm / np.where(denom > 0.0, denom, 1.0), 0.0)
    return {
        "product": var_a * var_b,
        "robertson": robertson,
        "schrodinger": robertson + cross.real**2,
        "luo_park": robertson + cu_a * cu_b,
        "bound1": lam_m**2 / (2.0 * lam_big) * comm_norm,
        "bound2": prefactor * comm_norm,
        "purity": (lam**2).sum(axis=1),
    }


def _special_states(d, rng):
    """Rank-deficient, pure and maximally mixed states U diag(spectrum) U^dag for a
    Haar-random U each, then the pure and maximally mixed states unrotated."""
    one_zero = np.concatenate([[0.0], rng.uniform(0.1, 1.0, d - 1)])
    pure = np.zeros(d)
    pure[-1] = 1.0
    rotated = []
    for spectrum in (one_zero / one_zero.sum(), pure, np.full(d, 1.0 / d)):
        u = sample_unitary(d, rng)
        rotated.append((u * spectrum) @ u.conj().T)
    return np.array(rotated + [np.diag(pure), np.eye(d) / d], dtype=complex)


def _assert_columns_close(got, want, rtol):
    scale = rtol * np.maximum(1.0, np.abs(want["product"]))
    for name in COLUMNS:
        excess = np.abs(got[name] - want[name]) - scale
        assert excess.max() <= 0.0, (name, float(excess.max()))


class TestBatchKernel:
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_matches_reference(self, d):
        rng = np.random.default_rng(SEED + 20 + d)
        n = 64
        rho = np.concatenate([sample_density_batch(d, n, rng), _special_states(d, rng)])
        m = rho.shape[0]
        a = sample_hermitian_batch(d, m, rng)
        b = sample_hermitian_batch(d, m, rng)
        before = [x.copy() for x in (a, b, rho)]
        cols = batch_bounds(a, b, rho)
        for x, saved in zip((a, b, rho), before):
            np.testing.assert_array_equal(x, saved)
        _assert_columns_close(cols, reference_batch_bounds(a, b, rho), 1e-12)
        # rotated pure state, then the exactly diagonal pure state
        assert cols["bound2"][n + 1] == pytest.approx(0.0, abs=1e-12)
        assert cols["bound2"][n + 3] == 0.0
        assert cols["purity"][n + 4] == pytest.approx(1.0 / d, abs=1e-15)

    def test_read_only_inputs(self):
        rng = np.random.default_rng(SEED + 40)
        n, d = 16, 4
        a = sample_hermitian_batch(d, n, rng)
        b = sample_hermitian_batch(d, n, rng)
        rho = sample_density(d, "hilbert-schmidt", rng).matrix
        a.setflags(write=False)
        b.setflags(write=False)
        cols = batch_bounds(a, b, np.broadcast_to(rho, (n, d, d)))
        want = reference_batch_bounds(a, b, np.broadcast_to(rho, (n, d, d)))
        _assert_columns_close(cols, want, 1e-12)

    def test_non_hermitian_observable_raises(self):
        rng = np.random.default_rng(SEED + 41)
        n, d = 8, 3
        a = sample_hermitian_batch(d, n, rng)
        b = sample_hermitian_batch(d, n, rng)
        rho = sample_density_batch(d, n, rng)
        b[5] += 1e-6j * np.eye(d)
        with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
            batch_bounds(a, b, rho)

    @pytest.mark.parametrize("operand", [0, 1])
    def test_non_finite_column_raises(self, operand):
        rng = np.random.default_rng(SEED + 42)
        n, d = 8, 3
        triple = [sample_hermitian_batch(d, n, rng), sample_hermitian_batch(d, n, rng)]
        triple[operand][2, 0, 1] = np.nan
        with pytest.raises(NumericalConsistencyError, match="non-finite"):
            batch_bounds(*triple, sample_density_batch(d, n, rng))

    def test_empty_batch(self):
        empty = np.zeros((0, 2, 2), dtype=complex)
        cols = batch_bounds(empty, empty, empty)
        assert sorted(cols) == sorted(COLUMNS)
        assert all(col.shape == (0,) for col in cols.values())

    def test_negative_state_eigenvalue_raises(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidStateError, match="negative"):
            batch_bounds(PAULI_X[None], PAULI_Y[None], rho[None])


def _spectra(d, n, rng):
    """Ascending Hilbert-Schmidt spectra, then a rank-deficient, a pure and the
    maximally mixed spectrum."""
    one_zero = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 1.0, d - 1))])
    pure = np.zeros(d)
    pure[-1] = 1.0
    special = [one_zero / one_zero.sum(), pure, np.full(d, 1.0 / d)]
    return np.concatenate([np.linalg.eigvalsh(sample_density_batch(d, n, rng)), special])


class TestBatchKernelOnSpectra:
    """``batch_bounds(a, b, lam)`` with (n, d) spectra: the diagonal states diag(lam),
    with A and B already in that eigenbasis."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_matches_diagonal_states(self, d):
        rng = np.random.default_rng(SEED + 140 + d)
        lam = _spectra(d, 64, rng)
        a = sample_hermitian_batch(d, lam.shape[0], rng)
        b = sample_hermitian_batch(d, lam.shape[0], rng)
        diag = np.einsum("nj,jk->njk", lam, np.eye(d)).astype(complex)
        _assert_columns_close(batch_bounds(a, b, lam), batch_bounds(a, b, diag), 1e-12)

    def test_row_order_does_not_matter(self):
        rng = np.random.default_rng(SEED + 150)
        d = 5
        lam = _spectra(d, 32, rng)
        a = sample_hermitian_batch(d, lam.shape[0], rng)
        b = sample_hermitian_batch(d, lam.shape[0], rng)
        shuffled = rng.permuted(lam, axis=1)
        assert (shuffled != lam).any()
        got, want = batch_bounds(a, b, shuffled), batch_bounds(a, b, lam)
        for name in COLUMNS:
            np.testing.assert_array_equal(got[name], want[name])

    def test_negative_entry_raises(self):
        with pytest.raises(InvalidStateError, match="negative"):
            batch_bounds(PAULI_X[None], PAULI_Y[None], np.array([[1.5, -0.5]]))

    def test_dimension_one_raises(self):
        one = np.ones((3, 1, 1), dtype=complex)
        with pytest.raises(DimensionMismatchError):
            batch_bounds(one, one, np.ones((3, 1)))

    def test_width_must_match_the_observables(self):
        rng = np.random.default_rng(SEED + 151)
        a = sample_hermitian_batch(3, 4, rng)
        with pytest.raises(DimensionMismatchError, match="width 4"):
            batch_bounds(a, a, np.full((4, 4), 0.25))

    def test_read_only_and_broadcast_inputs_unchanged(self):
        rng = np.random.default_rng(SEED + 152)
        n, d = 16, 4
        lam = _spectra(d, n - 3, rng)
        a = sample_hermitian_batch(d, n, rng)
        b = np.broadcast_to(sample_hermitian_batch(d, 1, rng), (n, d, d))
        saved = a.copy(), b.copy(), lam.copy()
        a.setflags(write=False)
        lam.setflags(write=False)
        got = batch_bounds(a, b, lam)
        for x, before in zip((a, b, lam), saved):
            np.testing.assert_array_equal(x, before)
        want = batch_bounds(a.copy(), np.array(b), lam.copy())
        for name in COLUMNS:
            np.testing.assert_array_equal(got[name], want[name])

    def test_overflowing_column_raises(self):
        # finite inputs whose squared entries overflow: the column check is the last guard
        rng = np.random.default_rng(SEED + 153)
        a = sample_hermitian_batch(3, 4, rng) * 1e200
        b = sample_hermitian_batch(3, 4, rng) * 1e200
        assert np.isfinite(a).all() and np.isfinite(b).all()
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalConsistencyError, match="batch column product has non-finite"):
                batch_bounds(a, b, _spectra(3, 1, rng))

    def test_empty_batch(self):
        cols = batch_bounds(np.zeros((0, 3, 3), dtype=complex), np.zeros((0, 3, 3)), np.zeros((0, 3)))
        assert sorted(cols) == sorted(COLUMNS)
        assert all(col.shape == (0,) for col in cols.values())

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_compare_law_matches_the_rotated_path(self, d):
        """The triples as ``compare`` draws them, (A, B, eigvalsh(rho)), against
        ``batch_bounds`` on independent matrix states: a two-sample KS test of each
        column, the bounds divided by the product."""
        from scipy.stats import ks_2samp

        n = 20_000
        rng = np.random.default_rng(SEED + 160 + d)
        a, b = sample_hermitian_batch(d, n, rng), sample_hermitian_batch(d, n, rng)
        new = batch_bounds(a, b, np.linalg.eigvalsh(sample_density_batch(d, n, rng)))
        a, b = sample_hermitian_batch(d, n, rng), sample_hermitian_batch(d, n, rng)
        old = batch_bounds(a, b, sample_density_batch(d, n, rng))
        for cols in (new, old):
            for name in BOUND_NAMES:
                cols[name] = cols[name] / cols["product"]
        for name in ("product", "purity", *BOUND_NAMES):
            assert ks_2samp(new[name], old[name]).pvalue > 1e-3, name


SCALAR_BOUNDS = {
    "robertson": bound_robertson,
    "schrodinger": bound_schrodinger,
    "luo_park": bound_luo_park,
    "bound1": bound_one,
    "bound2": bound_two,
}


class TestScalarMatchesReference:
    """The scalar wrappers against formulas that do not go through the batch kernel."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_bounds_match_reference(self, d):
        rng = np.random.default_rng(SEED + 60 + d)
        n = 16
        rho = np.concatenate([sample_density_batch(d, n, rng), _special_states(d, rng)])
        a = sample_hermitian_batch(d, rho.shape[0], rng)
        b = sample_hermitian_batch(d, rho.shape[0], rng)
        states = [DensityMatrix(r) for r in rho]
        triples = list(zip(a, b, states))
        got = {name: [fn(*t) for t in triples] for name, fn in SCALAR_BOUNDS.items()}
        got["product"] = [variance(x, s) * variance(y, s) for x, y, s in triples]
        reports = [bound_report(*t) for t in triples]
        from_report = {name: np.array([getattr(rep, name) for rep in reports]) for name in COLUMNS}
        assert all(rep.dim == d for rep in reports)
        # The states as the wrappers evaluate them: diag(spectrum), with A and B in
        # the eigenbasis.  C(X) takes sqrt(lam), so a second eigendecomposition of a
        # rank-deficient state would differ from the first by about 1e-8.
        vecs = np.array([s.eigenvectors for s in states])
        vh = vecs.conj().swapaxes(1, 2)
        spectra = np.array([np.diag(s.spectrum) for s in states], dtype=complex)
        want = reference_batch_bounds(vh @ a @ vecs, vh @ b @ vecs, spectra)
        _assert_columns_close(from_report, want, 1e-12)
        scale = 1e-12 * np.maximum(1.0, np.abs(want["product"]))
        for name, values in got.items():
            assert np.all(np.abs(np.array(values) - want[name]) <= scale), name
        # the Hilbert-Schmidt states are well conditioned: no rotation needed
        raw = reference_batch_bounds(a[:n], b[:n], rho[:n])
        _assert_columns_close({k: v[:n] for k, v in from_report.items()}, raw, 1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_single_observable_match_oracle(self, d):
        rng = np.random.default_rng(SEED + 70 + d)
        rho = np.concatenate([sample_density_batch(d, 16, rng), _special_states(d, rng)])
        xs = sample_hermitian_batch(d, rho.shape[0], rng)
        for x, r in zip(xs, rho):
            state = DensityMatrix(r)
            mean = expectation(x, state)
            square = np.einsum("ij,jk,ki->", x, x, state.matrix).real
            cross = cross_trace_oracle(x, state)
            tol = 1e-12 * max(1.0, square)
            assert variance(x, state) == pytest.approx(square - mean**2, abs=tol)
            assert classical_uncertainty(x, state) == pytest.approx(cross - mean**2, abs=tol)
            assert skew_information(x, state) == pytest.approx(square - cross, abs=tol)


def _call(fn, a, b, rho):
    if fn in (expectation, variance, skew_information, classical_uncertainty):
        return fn(a, rho)
    return fn(a, b, rho)


SCALAR_FUNCTIONS = [
    variance,
    skew_information,
    classical_uncertainty,
    bound_robertson,
    bound_schrodinger,
    bound_luo_park,
    bound_one,
    bound_two,
    bound_report,
]


def _invalid_states():
    rho = sample_density(3, "hilbert-schmidt", np.random.default_rng(SEED + 80)).matrix
    non_hermitian = rho.copy()
    non_hermitian[0, 1] += 1e-3
    return {
        "non-hermitian": non_hermitian,
        "negative-eigenvalue": np.diag([1.5, -0.5, 0.0]).astype(complex),
        "trace-2": 2.0 * rho,
    }


INVALID_STATES = _invalid_states()

_NAN_A = np.eye(3, dtype=complex)
_NAN_A[0, 0] = np.nan
INVALID_OBSERVABLES = {"non-hermitian": np.triu(np.ones((3, 3))).astype(complex), "nan": _NAN_A}


class TestScalarStateChecks:
    """Every scalar function validates a raw-array state as a DensityMatrix."""

    A = sample_hermitian(3, np.random.default_rng(SEED + 81)).matrix
    B = sample_hermitian(3, np.random.default_rng(SEED + 82)).matrix

    @pytest.mark.parametrize("case", sorted(INVALID_STATES))
    @pytest.mark.parametrize("fn", [*SCALAR_FUNCTIONS, expectation], ids=lambda fn: fn.__name__)
    def test_invalid_raw_state_raises(self, fn, case):
        with pytest.raises(InvalidStateError):
            _call(fn, self.A, self.B, INVALID_STATES[case])

    @pytest.mark.parametrize("case", sorted(INVALID_OBSERVABLES))
    @pytest.mark.parametrize("fn", SCALAR_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_invalid_observable_raises(self, fn, case):
        rho = sample_density(3, "hilbert-schmidt", np.random.default_rng(SEED + 84))
        with pytest.raises(NotHermitianError):
            _call(fn, INVALID_OBSERVABLES[case], self.B, rho)

    @pytest.mark.parametrize(
        "fn", [*SCALAR_FUNCTIONS, batch_bounds], ids=lambda fn: fn.__name__
    )
    def test_one_level_state_raises(self, fn):
        # the kernel reads lambda_2; expectation and ratio stay defined at d = 1
        x = np.array([[2.0 + 0j]])
        args = (x[None], x[None], x[None] / 2.0) if fn is batch_bounds else (x, x, x / 2.0)
        with pytest.raises(DimensionMismatchError, match="dimension must be >= 2"):
            _call(fn, *args)
        assert expectation(x, x / 2.0) == 2.0
        assert ratio(x, x, x / 2.0) == 0.0

    @pytest.mark.parametrize("fn", SCALAR_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_raw_state_equals_density_matrix(self, fn):
        rng = np.random.default_rng(SEED + 83)
        raw = np.array(sample_density(3, "hilbert-schmidt", rng).matrix)
        assert _call(fn, self.A, self.B, raw) == _call(fn, self.A, self.B, DensityMatrix(raw))


def _random_triples(seed, d, n=4):
    rng = np.random.default_rng(seed)
    return (
        sample_hermitian_batch(d, n, rng),
        sample_hermitian_batch(d, n, rng),
        sample_density_batch(d, n, rng),
        rng,
    )


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DIMS = st.integers(min_value=2, max_value=6)
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


class TestBatchProperties:
    @PROPERTY_SETTINGS
    @given(seed=SEEDS, d=DIMS)
    def test_unitary_covariance(self, seed, d):
        a, b, rho, rng = _random_triples(seed, d)
        u = sample_unitary(d, rng)
        ud = u.conj().T
        rotated = batch_bounds(u @ a @ ud, u @ b @ ud, u @ rho @ ud)
        _assert_columns_close(rotated, batch_bounds(a, b, rho), 1e-10)

    @PROPERTY_SETTINGS
    @given(seed=SEEDS, d=DIMS, s=st.floats(min_value=-4.0, max_value=4.0))
    # rounding in the rotation grows with the entries; Hermitian input must still pass
    @example(seed=SEED, d=8, s=1e8)
    def test_scaling(self, seed, d, s):
        a, b, rho, _ = _random_triples(seed, d)
        base = batch_bounds(a, b, rho)
        want = {name: s**2 * base[name] for name in COLUMNS}
        want["purity"] = base["purity"]
        _assert_columns_close(batch_bounds(s * a, b, rho), want, 1e-10 * max(1.0, s**2))

    @PROPERTY_SETTINGS
    @given(seed=SEEDS, d=DIMS, shift=st.floats(min_value=-8.0, max_value=8.0))
    def test_identity_shift_invariance(self, seed, d, shift):
        a, b, rho, _ = _random_triples(seed, d)
        shifted = batch_bounds(a + shift * np.eye(d), b, rho)
        _assert_columns_close(shifted, batch_bounds(a, b, rho), 1e-10)


class TestKernelOrderings:
    """What the kernel guarantees by construction, so checks nothing: the Schrodinger and
    Luo-Park bounds add a nonnegative term to Robertson's, bound1's prefactor is at most
    bound2's, and classical uncertainties are sums of nonnegative terms."""

    @PROPERTY_SETTINGS
    @given(seed=SEEDS, d=DIMS, log_s=st.floats(min_value=-6.0, max_value=8.0))
    @example(seed=SEED, d=4, log_s=8.0)
    @example(seed=SEED, d=2, log_s=-6.0)
    def test_orderings_hold_at_every_scale(self, seed, d, log_s):
        a, b, rho, _ = _random_triples(seed, d)
        rho[0] = np.eye(d) / d  # maximally mixed: bound1 equals bound2
        a *= 10.0**log_s
        cols = batch_bounds(a, b, rho)
        assert (cols["schrodinger"] >= cols["robertson"]).all()
        assert (cols["luo_park"] >= cols["robertson"]).all()
        assert (cols["bound1"] <= cols["bound2"] * (1.0 + 4.0 * np.finfo(float).eps)).all()
        for i in range(len(rho)):
            assert classical_uncertainty(a[i], rho[i]) >= 0.0
            assert classical_uncertainty(b[i], rho[i]) >= 0.0


def _homogeneous_parts(a, b, rho):
    """Each scalar function of (A, B, rho) that is homogeneous in A, keyed by name, as
    (value, degree in A)."""
    report = bound_report(a, b, rho)
    parts = {
        "expectation": (expectation(a, rho), 1),
        "variance": (variance(a, rho), 2),
        "skew_information": (skew_information(a, rho), 2),
        "classical_uncertainty": (classical_uncertainty(a, rho), 2),
        "weighted_norm_sq": (weighted_norm_sq(a, rho), 2),
        "ratio": (ratio(a, b, rho), 0),
    }
    parts.update({name: (getattr(report, name), 2) for name in COLUMNS if name != "purity"})
    return parts


class TestScalarScaling:
    # A = U diag U^dag is Hermitian only up to round-off, which grows with its scale;
    # with U the eigenvectors of rho, A commutes with rho and its skew information is 0.
    @PROPERTY_SETTINGS
    @given(
        seed=SEEDS,
        d=DIMS,
        log_s=st.floats(min_value=-6.0, max_value=8.0),
        commuting=st.booleans(),
    )
    @example(seed=SEED, d=4, log_s=8.0, commuting=False)
    @example(seed=SEED, d=4, log_s=4.0, commuting=True)
    @example(seed=SEED, d=2, log_s=-6.0, commuting=False)
    def test_degree_in_a(self, seed, d, log_s, commuting):
        rng = np.random.default_rng(seed)
        rho = sample_density(d, "hilbert-schmidt", rng)
        u = rho.eigenvectors if commuting else sample_unitary(d, rng)
        a = (u * rng.standard_normal(d)) @ u.conj().T
        b = sample_hermitian(d, rng)
        s = 10.0**log_s
        base = _homogeneous_parts(a, b, rho)
        for name, (value, degree) in _homogeneous_parts(s * a, b, rho).items():
            want = s**degree * base[name][0]
            assert value == pytest.approx(want, rel=1e-9, abs=1e-9 * s**degree), name


def fifty_digit_bound1(a, b, c) -> tuple[Decimal, Decimal]:
    """(1 - |c|)^2 / (1 + |c|) |a x b|^2 and |c| for the float axes and Bloch vector as
    given, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, c = ([Decimal(x) for x in v] for v in (a, b, c))
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        radius = sum(x * x for x in c).sqrt()
        return (1 - radius) ** 2 / (1 + radius) * sum(x * x for x in cross), radius


class TestQubitClosedForm:
    def test_axes_example(self):
        rep = qubit_bounds_closed_form([1, 0, 0], [0, 1, 0], [0, 0, 0.5])
        assert rep.robertson == pytest.approx(0.25)
        assert rep.bound2 == pytest.approx(0.75)

    def test_parallel_axes_vanish(self):
        a = np.array([0.0, 0.6, 0.8])
        rep = qubit_bounds_closed_form(a, a, [0.1, 0.2, 0.3])
        assert rep.robertson == pytest.approx(0.0, abs=1e-15)
        assert rep.bound1 == pytest.approx(0.0, abs=1e-15)
        assert rep.bound2 == pytest.approx(0.0, abs=1e-15)

    def test_center_of_ball_convention(self):
        rep = qubit_bounds_closed_form([1, 0, 0], [0, 1, 0], [0.0, 0.0, 0.0])
        assert rep.luo_park == pytest.approx(1.0)
        assert rep.robertson == pytest.approx(0.0, abs=1e-15)
        assert rep.schrodinger == pytest.approx(0.0, abs=1e-15)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            qubit_bounds_closed_form([1.0, 1.0, 0.0], [0, 1, 0], [0, 0, 0.1])

    def test_outside_ball_rejected(self):
        from commutator_bounds import InvalidStateError

        with pytest.raises(InvalidStateError):
            qubit_bounds_closed_form([1, 0, 0], [0, 1, 0], [0, 0, 1.5])

    def test_nan_input_rejected(self):
        with pytest.raises(InvalidStateError):
            qubit_bounds_closed_form([1, 0, 0], [0, 1, 0], [np.nan, 0, 0])
        with pytest.raises(ValueError, match="unit vector"):
            qubit_bounds_closed_form([1, 0, 0], [np.nan, 1, 0], [0, 0, 0.5])

    def test_matches_matrix_path(self):
        rng = np.random.default_rng(SEED + 12)
        n = 1000
        a = sample_unit_vectors(3, n, rng)
        b = sample_unit_vectors(3, n, rng)
        c_dirs = sample_unit_vectors(3, n, rng)
        radii = rng.uniform(0.0, 1.0, n)
        cases = []
        for i in range(n):
            c = radii[i] * c_dirs[i]
            closed = qubit_bounds_closed_form(a[i], b[i], c)
            rho = DensityMatrix.from_bloch(c)
            generic = bound_report(Observable.from_bloch(a[i]), Observable.from_bloch(b[i]), rho)
            cases.append((closed, generic))
        for closed, generic in cases:
            for name in ("product", "robertson", "schrodinger", "luo_park", "bound1", "bound2"):
                assert getattr(closed, name) == pytest.approx(
                    getattr(generic, name), abs=1e-10
                ), name

    @pytest.mark.parametrize("k", range(1, 11))
    def test_bound1_accurate_near_pure_states(self, k):
        # at |c| = 1 - 10^-k the relative error may grow like the conditioning of 1 - |c|,
        # eps / (1 - |c|), but not like the cancellation in 2 (P - |c|) / (1 + |c|)
        rng = np.random.default_rng(SEED + 16)
        a, b, axes = (sample_unit_vectors(3, 8, rng) for _ in range(3))
        for a_i, b_i, axis in zip(a, b, axes):
            c = (1.0 - 10.0**-k) * axis
            exact, radius = fifty_digit_bound1(a_i, b_i, c)
            got = Decimal(qubit_bounds_closed_form(a_i, b_i, c).bound1)
            assert abs(got - exact) <= Decimal(1e-14) / (1 - radius) * exact, (k, got, exact)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(SEED + 13)
        a = sample_unit_vectors(3, 10, rng)
        b = sample_unit_vectors(3, 10, rng)
        c = np.array([0.1, -0.3, 0.4])
        cols = qubit_closed_form_batch(a, b, c)
        for i in range(10):
            rep = qubit_bounds_closed_form(a[i], b[i], c)
            for name in ("product", "robertson", "schrodinger", "luo_park", "bound1", "bound2"):
                assert cols[name][i] == pytest.approx(getattr(rep, name), abs=1e-13)

    def test_matches_matrix_path_bulk(self):
        # closed forms against the generic matrix path on 10^4 random triples
        from commutator_bounds import PAULIS

        rng = np.random.default_rng(SEED + 15)
        n = 10_000
        a = sample_unit_vectors(3, n, rng)
        b = sample_unit_vectors(3, n, rng)
        c = rng.uniform(0.0, 1.0) * sample_unit_vectors(3, 1, rng)[0]
        closed = qubit_closed_form_batch(a, b, c)
        a_mats = np.einsum("nk,kij->nij", a, PAULIS)
        b_mats = np.einsum("nk,kij->nij", b, PAULIS)
        rho = 0.5 * (np.eye(2) + np.einsum("k,kij->ij", c, PAULIS))
        generic = batch_bounds(a_mats, b_mats, np.broadcast_to(rho, (n, 2, 2)))
        for name in ("product", "robertson", "schrodinger", "luo_park", "bound1", "bound2"):
            assert np.max(np.abs(closed[name] - generic[name])) < 1e-10, name

    @PROPERTY_SETTINGS
    @given(seed=SEEDS, radius=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @example(seed=SEED, radius=0.0)
    @example(seed=SEED, radius=1.0)
    def test_matches_batch_bounds(self, seed, radius):
        # A = a.sigma, B = b.sigma, rho = (I + c.sigma)/2 through the generic batch kernel
        from commutator_bounds import PAULIS

        rng = np.random.default_rng(seed)
        n = 8
        a = sample_unit_vectors(3, n, rng)
        b = sample_unit_vectors(3, n, rng)
        c = radius * sample_unit_vectors(3, 1, rng)[0]
        closed = qubit_closed_form_batch(a, b, c)
        rho = 0.5 * (np.eye(2) + np.einsum("k,kij->ij", c, PAULIS))
        generic = batch_bounds(
            np.einsum("nk,kij->nij", a, PAULIS),
            np.einsum("nk,kij->nij", b, PAULIS),
            np.broadcast_to(rho, (n, 2, 2)),
        )
        for name in COLUMNS:
            assert np.max(np.abs(closed[name] - generic[name])) < 1e-10, name


class TestCommutatorNormIdentity:
    def test_orthogonal_axes(self):
        assert qubit_commutator_norm_identity([1, 0, 0], [0, 1, 0]) == pytest.approx(4.0)

    def test_parallel_axes(self):
        a = [0.0, 0.6, 0.8]
        assert qubit_commutator_norm_identity(a, a) == pytest.approx(0.0, abs=1e-15)

    def test_axes_of_wrong_shape_raise(self):
        with pytest.raises(ValueError, match="axes must have 3 components"):
            qubit_commutator_norm_identity([1.0, 0.0], [0.0, 1.0, 0.0])

    def test_state_independence_against_matrix_path(self):
        rng = np.random.default_rng(SEED + 14)
        for _ in range(300):
            a = sample_unit_vectors(3, 1, rng)[0]
            b = sample_unit_vectors(3, 1, rng)[0]
            c = rng.uniform(0, 1) * sample_unit_vectors(3, 1, rng)[0]
            rho = DensityMatrix.from_bloch(c)
            comm = commutator(Observable.from_bloch(a), Observable.from_bloch(b))
            matrix_path = weighted_norm_sq(comm, rho)
            identity = qubit_commutator_norm_identity(a, b)
            assert abs(matrix_path - identity) < 1e-10
            # also half the unweighted squared norm
            assert identity == pytest.approx(np.sum(np.abs(comm) ** 2) / 2.0, abs=1e-10)
