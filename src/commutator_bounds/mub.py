"""Mutually unbiased observable pairs: construction, bound formulas, sphere averages.

One observable is diagonal in the computational basis (sharing its eigenbasis
with the state); its partner's eigenbasis is encoded by a phase table
theta[j, k] with overlaps e^(i theta[j,k]) / sqrt(d).  The discrete Fourier
phases give a valid pair in every dimension, and the averaged quantities are
independent of which valid phase table is used.

:func:`mub_sample_columns` has two paths.  On the Fourier table, the one the CLI
uses, |<j|B|k>|^2 depends only on (j - k) mod d, and the columns are sums over
those d - 1 shifts: O(d^2) per sample.  Any other table builds every <j|B|k>
from a d x d^2 overlap table: O(d^3) per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from ._parallel import Stream
from .averages import MCEstimate, checked_purity, seeded_moments
from .bounds import _bound2_prefactor, _root_weighted_sum, _weighted_sum, bound_report
from .linalg import checked_dim, checked_unit, frozen
from .states import DensityMatrix, Observable, checked_spectrum, sample_unit_vectors

FIG2_HEADER = "purity,luo_park_mub_avg,bound2_mub_avg"

MIN_MUB_SAMPLES = 10_000

#: Tolerance on the unitarity of the induced eigenbasis.
BASIS_TOL = 1e-10


def _overlaps(phases: np.ndarray) -> np.ndarray:
    """The overlap matrix e^(i theta[j,k]) / sqrt(d) of a d x d phase table."""
    return np.exp(1j * phases) / math.sqrt(phases.shape[0])


def _checked_phases(d: int, phases) -> np.ndarray:
    """``phases`` as floats; ValueError unless a d x d table with unitary overlaps."""
    ph = np.asarray(phases, dtype=float)
    if ph.shape != (d, d):
        raise ValueError(f"phase table must have shape ({d}, {d}), got {ph.shape}")
    u = _overlaps(ph)
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(d)))
    if not defect <= BASIS_TOL:
        raise ValueError(f"phases do not induce an orthonormal eigenbasis (defect {defect:.3e})")
    return ph


@dataclass(frozen=True, eq=False)
class MUBPair:
    """A mutually unbiased observable pair with fixed spectra.

    ``phases[j, k]`` is the phase of the overlap between computational basis
    vector j and the k-th eigenvector of the second observable; the first
    observable is diagonal with eigenvalues ``spectrum_a``.
    """

    dim: int
    phases: np.ndarray
    spectrum_a: np.ndarray
    spectrum_b: np.ndarray

    def basis(self) -> np.ndarray:
        """Unitary whose k-th column is the k-th eigenvector of the second observable."""
        return _overlaps(self.phases)

    def observable_a(self) -> Observable:
        return Observable(np.diag(self.spectrum_a).astype(complex))

    def observable_b(self) -> Observable:
        u = self.basis()
        return Observable((u * self.spectrum_b) @ u.conj().T)


def mub_pair(dim, phases, spectrum_a, spectrum_b) -> MUBPair:
    """Validate and build a :class:`MUBPair`.

    The phase table must induce an orthonormal basis (unitary overlap
    matrix), and both spectra must be unit vectors, the normalization used
    throughout the sphere-averaging formulas.
    """
    d = checked_dim(dim)
    ph = _checked_phases(d, phases)
    sa = checked_unit(spectrum_a, "spectrum_a", d)
    sb = checked_unit(spectrum_b, "spectrum_b", d)
    return MUBPair(dim=d, phases=frozen(ph), spectrum_a=frozen(sa), spectrum_b=frozen(sb))


def fourier_phases(dim: int) -> np.ndarray:
    """Discrete Fourier phase table 2 pi j k / d; valid in every dimension."""
    j = np.arange(dim)
    return 2.0 * np.pi * np.outer(j, j) / dim


def fourier_mub_pair(dim, spectrum_a, spectrum_b) -> MUBPair:
    """Mutually unbiased pair on the computational / Fourier bases."""
    return mub_pair(dim, fourier_phases(dim), spectrum_a, spectrum_b)


def mub_sample_columns(
    phases: np.ndarray, lams: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Per-sample bound-kernel columns for batches of spectra ``a``, ``b`` (rows).

    Columns: weighted squared commutator norm, Luo-Park second term, and its
    two classical factors.  In the diagonal state's eigenbasis A~ = diag(a) and
    B~ = U diag(b) U^dag, u_jl = <j|b_l>, and every column is a sum of nonnegative
    terms over the |B~'_jk|^2 of the centered B'.  On :func:`fourier_phases` those
    depend only on (j - k) mod d and :func:`_circulant_sums` costs O(d^2) per sample;
    any other table takes :func:`_table_sums`, O(d^3) per sample.
    """
    d = phases.shape[0]
    if np.array_equal(phases, fourier_phases(d)):
        comm_norm, factor_b = _circulant_sums(lams, a, b)
    else:
        comm_norm, factor_b = _table_sums(phases, lams, a, b)
    # A commutes with rho, so V(A) = C(A), and the table of the diagonal A~' is one row
    centered_a = a - (a @ lams)[:, None]
    factor_a = _weighted_sum(np.square(centered_a)[:, None, :], lams)
    return np.column_stack([comm_norm, factor_a * factor_b, factor_a, factor_b])


def _table_sums(
    phases: np.ndarray, lams: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The commutator norm and C(B) of :func:`mub_sample_columns` for any phase table.

    b and the table u_jl conj(u_kl) give the (n, d, d) |B~'_jk|^2 tables, which the
    bound kernel's reductions sum.
    """
    d = phases.shape[0]
    u = _overlaps(phases).T[:, :, None]  # u[l, j, 0] = <j|b_l>
    ut = u.swapaxes(1, 2)
    # B~_jk = sum_l b_l u_jl conj(u_kl), one real product for each part; the imaginary
    # part of u_jl conj(u_jl) is written as y x - x y, so B~_jj is exactly real
    weights = b @ (u.real * ut.real + u.imag * ut.imag).reshape(d, d * d)
    diag = weights[:, :: d + 1]
    diag -= (diag @ lams)[:, None]  # centering B moves only the diagonal
    np.square(weights, out=weights)
    imag = b @ (u.imag * ut.real - u.real * ut.imag).reshape(d, d * d)
    weights += np.square(imag, out=imag)
    del imag  # peak memory: at most two (n, d^2) tables at once
    weights = weights.reshape(-1, d, d)

    factor_b = _root_weighted_sum(weights, np.sqrt(lams))
    # |[A,B]~_jk|^2 = (a_j - a_k)^2 |B~_jk|^2: centering moved only the diagonal, where a_j = a_k
    gaps = a[:, :, None] - a[:, None, :]
    weights *= np.square(gaps, out=gaps)
    return _weighted_sum(weights, lams), factor_b


def _circulant_sums(
    lams: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The commutator norm and C(B) of :func:`mub_sample_columns` on the Fourier table.

    There B~_jk = g_((j - k) mod d) with g = ifft(b), so with c_s = |g_s|^2 the two
    columns are sum_{s>=1} c_s sum_k lam_k (a_(k+s) - a_k)^2 and sum_{s>=1} c_s R_s,
    R_s = sum_k sqrt(lam_k lam_(k+s)), indices mod d.  Centering leaves each B~'_jj
    at g_0 (1 - sum lam) = 0, so s = 0 drops out.  The gaps stay differences that are
    squared, never expanded into sums that cancel.
    """
    d = lams.shape[0]
    shifts = np.arange(1, d)[:, None]
    k = np.arange(d)
    # rows s = 1..d-1 of ifft: g_s = sum_l b_l e^(2 pi i s l / d) / d, angles reduced mod d
    angles = (2.0 * np.pi / d) * (shifts * k % d)
    waves = np.concatenate([np.cos(angles), np.sin(angles)]) / d
    parts = waves @ b.T  # (2 (d - 1), n): real parts of g_s, then imaginary parts
    np.square(parts, out=parts)
    overlap = parts[: d - 1]  # (d - 1, n) table of c_s
    overlap += parts[d - 1 :]
    root = np.sqrt(lams)
    pair_roots = root[(shifts + k) % d] @ root  # R_s
    factor_b = pair_roots @ overlap

    at = np.ascontiguousarray(a.T)  # (d, n): one contiguous row per level
    gap = np.empty_like(at)
    spread = parts[d - 1 :]  # the spent sine rows take sum_k lam_k gap_k^2, one per shift
    for s in range(1, d):
        np.subtract(at[s:], at[:-s], out=gap[:-s])  # a_(k+s) - a_k for k < d - s
        np.subtract(at[:s], at[-s:], out=gap[-s:])  # and wrapped round for the rest
        np.dot(lams, np.square(gap, out=gap), out=spread[s - 1])
    spread *= overlap
    return spread.sum(axis=0), factor_b


def mub_samples(
    phases: np.ndarray, lams: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """(count, 4) :func:`mub_sample_columns` for ``count`` uniform unit spectra pairs."""
    d = phases.shape[0]
    a = sample_unit_vectors(d, count, rng)
    b = sample_unit_vectors(d, count, rng)
    return mub_sample_columns(phases, lams, a, b)


def mub_commutator_norm(pair: MUBPair, lams) -> float:
    """State-weighted squared commutator norm, the first of :func:`mub_sample_columns`.

    Agrees with the matrix path (building both observables and the diagonal
    state explicitly) within 1e-9; ``lams`` is a state spectrum of the pair's dimension.
    """
    lam = checked_spectrum(lams, pair.dim)
    cols = mub_sample_columns(
        np.asarray(pair.phases), lam, pair.spectrum_a[None, :], pair.spectrum_b[None, :]
    )
    return float(cols[0, 0])


def mub_vanishing_check(pair: MUBPair, rho_spectrum) -> tuple[float, float]:
    """Robertson and Schroedinger bounds when the state commutes with the first observable.

    Both are exactly 0, which ``mub-average`` prints; this matrix-path check of that 0 reads
    round-off below 1e-10.  A mutually unbiased pair's complementarity is invisible to them.
    """
    rho = DensityMatrix.from_spectrum(rho_spectrum)
    report = bound_report(pair.observable_a(), pair.observable_b(), rho)
    return report.robertson, report.schrodinger


def mub_column_averages(lams) -> tuple[float, float, float, float]:
    """Closed-form means of the four :func:`mub_sample_columns` over both unit spectra.

    2 (d - 1) / d^3 for the commutator norm, then with f_a = sum_{j != k} lam_j lam_k / d
    and f_b = sum_{j != k} sqrt(lam_j lam_k) / d^2, whose nonnegative pair sums (``fsum``)
    do not cancel near a pure state, the Luo-Park term f_a f_b and the factors f_a, f_b.
    """
    lam = checked_spectrum(lams)
    d = checked_dim(lam.shape[0])
    pairs = np.outer(lam, lam)[np.triu_indices(d, 1)]
    mixed = 2.0 * math.fsum(pairs)
    spread = 2.0 * math.fsum(np.sqrt(pairs))
    return mub_commutator_norm_average(d), mixed * spread / d**3, mixed / d, spread / d**2


def mub_lp_average(lams) -> float:
    """The pair-averaged Luo-Park bound, the second of :func:`mub_column_averages`."""
    return mub_column_averages(lams)[1]


def mub_b2_average(lams) -> float:
    """Pair-averaged conjectured bound: lam1 lam2 / (lam1 + lam2) * 2 (d-1) / d^3."""
    lam = np.sort(checked_spectrum(lams))
    d = checked_dim(lam.shape[0])
    return float(_bound2_prefactor(lam[0], lam[1])) * mub_commutator_norm_average(d)


def mub_commutator_norm_average(dim: int) -> float:
    """Average of the weighted squared commutator norm over both unit spectra.

    2 (d - 1) / d^3, independent of the state spectrum and the phase table.
    """
    d = checked_dim(dim)
    return 2.0 * (d - 1) / d**3


@dataclass(frozen=True)
class MubAverages:
    """Monte Carlo estimates for a mutually unbiased pair with random unit spectra."""

    comm_norm: MCEstimate
    lp_term: MCEstimate
    lp_factor_a: MCEstimate
    lp_factor_b: MCEstimate


#: The four :func:`mub_sample_columns`, in column order, as :class:`MubAverages` names them.
MUB_COLUMN_NAMES = tuple(field.name for field in fields(MubAverages))


def mc_mub_average(
    dim: int, lams, samples: int, seed: int, phases: np.ndarray | None = None
) -> MubAverages:
    """Monte Carlo averages over independent uniform unit spectra of both observables.

    The four means match :func:`mub_column_averages`.  ``phases`` is checked as
    in :func:`mub_pair`.  On the default table they are ``cbounds mc-average --mub`` rows.
    """
    if samples < MIN_MUB_SAMPLES:
        raise ValueError(f"need at least {MIN_MUB_SAMPLES} samples, got {samples}")
    lam = checked_spectrum(lams, checked_dim(dim))
    ph = fourier_phases(dim) if phases is None else _checked_phases(dim, phases)
    ests = seeded_moments(partial(mub_samples, ph, lam), samples, seed, Stream.MC_MUB).estimates()
    return MubAverages(*ests)


def qubit_mub_theta_lp(purity: float, theta: float) -> float:
    """Luo-Park bound for a mutually unbiased qubit pair with the state in their plane.

    With q = sqrt(2 (1 - P)) the value is
    q^2 (1 + (q - 1) cos^2 theta)(1 + (q - 1) sin^2 theta): largest at
    theta = pi/4 where it reaches q^2 (1 + q)^2 / 4, smallest at theta = 0
    where it reduces to q^3.  It never exceeds the conjectured bound
    2 (1 - P).
    """
    p = checked_purity(purity)
    q = math.sqrt(2.0 * (1.0 - p))
    return q**2 * (1.0 + (q - 1.0) * math.cos(theta) ** 2) * (
        1.0 + (q - 1.0) * math.sin(theta) ** 2
    )


def qubit_spectrum_from_purity(purity: float) -> np.ndarray:
    """Ascending qubit spectrum ((1 - r)/2, (1 + r)/2) with r = sqrt(2P - 1)."""
    r = math.sqrt(2.0 * checked_purity(purity) - 1.0)
    return np.array([(1.0 - r) / 2.0, (1.0 + r) / 2.0])


def fig2_rows(points: int) -> np.ndarray:
    """(points, 3) table of mutually-unbiased-pair averages over a qubit purity grid.

    Columns follow ``FIG2_HEADER``: purity P, then the d = 2 closed forms of
    :func:`mub_lp_average`, (1 - P) sqrt(2 (1 - P)) / 8, and of :func:`mub_b2_average`,
    (1 - P) / 8.  The second column never exceeds the third.
    """
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    grid = np.linspace(0.5, 1.0, points)
    mixed = 1.0 - grid
    return np.column_stack([grid, mixed * np.sqrt(2.0 * mixed) / 8.0, mixed / 8.0])
