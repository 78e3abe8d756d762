"""Mutually unbiased observable pairs: construction, bound formulas, sphere averages.

One observable is diagonal in the computational basis (sharing its eigenbasis
with the state); its partner's eigenbasis is encoded by a phase table
theta[j, k] with overlaps e^(i theta[j,k]) / sqrt(d).  The discrete Fourier
phases give a valid pair in every dimension, and the averaged quantities are
independent of which valid phase table is used, so the sampled columns of
:func:`mub_sample_columns` are those of the Fourier pair: O(d^2) per sample.
A pair on any other table is read on the matrix path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from ._parallel import Stream
from .averages import MCEstimate, checked_purity, seeded_moments
from .bounds import _bound2_prefactor, _weighted_sum, bound_report
from .linalg import checked_dim, checked_unit, commutator, frozen, weighted_norm_sq
from .states import DensityMatrix, Observable, checked_spectrum, sample_unit_vectors

FIG2_HEADER = "purity,luo_park_mub_avg,bound2_mub_avg"

MIN_MUB_SAMPLES = 10_000

#: Tolerance on the unitarity of the induced eigenbasis.
BASIS_TOL = 1e-10


def _overlaps(phases: np.ndarray) -> np.ndarray:
    """The overlap matrix e^(i theta[j,k]) / sqrt(d) of a d x d phase table."""
    return np.exp(1j * phases) / math.sqrt(phases.shape[0])


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
    ph = np.asarray(phases, dtype=float)
    if ph.shape != (d, d):
        raise ValueError(f"phase table must have shape ({d}, {d}), got {ph.shape}")
    u = _overlaps(ph)
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(d)))
    if not defect <= BASIS_TOL:
        raise ValueError(f"phases do not induce an orthonormal eigenbasis (defect {defect:.3e})")
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
    """Per-sample bound-kernel columns of the Fourier pair for batches of spectra ``a``, ``b``.

    Columns: weighted squared commutator norm, Luo-Park second term, and its two classical
    factors, each a sum of nonnegative terms (:func:`_circulant_sums`, O(d^2) per sample).
    ValueError unless ``phases`` is :func:`fourier_phases` of the state's dimension; it stays
    an argument while perfbench counts the items of a call from it (ROADMAP item 16).
    """
    d = lams.shape[0]
    if not np.array_equal(phases, fourier_phases(d)):
        raise ValueError(f"the sample columns read fourier_phases({d}) and no other table")
    comm_norm, factor_b = _circulant_sums(lams, a, b)
    # A commutes with rho, so V(A) = C(A), and the table of the diagonal A~' is one row
    centered_a = a - (a @ lams)[:, None]
    factor_a = _weighted_sum(np.square(centered_a)[:, None, :], lams)
    return np.column_stack([comm_norm, factor_a * factor_b, factor_a, factor_b])


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


def mub_samples(lams: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, 4) :func:`mub_sample_columns` for ``count`` uniform unit spectra pairs."""
    d = lams.shape[0]
    a = sample_unit_vectors(d, count, rng)
    b = sample_unit_vectors(d, count, rng)
    return mub_sample_columns(fourier_phases(d), lams, a, b)


def mub_commutator_norm(pair: MUBPair, lams) -> float:
    """State-weighted squared commutator norm of ``pair`` on the matrix path, any table,
    for rho = diag(``lams``), a state spectrum of the pair's dimension.  On the Fourier pair
    it is the first of :func:`mub_sample_columns`."""
    lam = checked_spectrum(lams, pair.dim)
    return weighted_norm_sq(commutator(pair.observable_a(), pair.observable_b()), np.diag(lam))


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


def mc_mub_average(dim: int, lams, samples: int, seed: int) -> MubAverages:
    """Monte Carlo averages of the Fourier pair over independent uniform unit spectra of
    both observables, the ``cbounds mc-average --mub`` rows.  The four means match
    :func:`mub_column_averages`, which hold for every valid table."""
    if samples < MIN_MUB_SAMPLES:
        raise ValueError(f"need at least {MIN_MUB_SAMPLES} samples, got {samples}")
    lam = checked_spectrum(lams, checked_dim(dim))
    ests = seeded_moments(partial(mub_samples, lam), samples, seed, Stream.MC_MUB).estimates()
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
