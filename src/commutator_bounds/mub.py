"""Mutually unbiased observable pairs: construction, bound formulas, sphere averages.

One observable is diagonal in the computational basis (sharing its eigenbasis
with the state); its partner's eigenbasis is encoded by a phase table
theta[j, k] with overlaps e^(i theta[j,k]) / sqrt(d).  The discrete Fourier
phases give a valid pair in every dimension, and the averaged quantities are
independent of which valid phase table is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .averages import MCEstimate, checked_purity, sequential_moments
from .bounds import _root_weighted_sum, _weighted_sum, bound_report
from .linalg import checked_dim, checked_unit, frozen
from .states import DensityMatrix, Observable, checked_spectrum, sample_unit_vectors

FIG2_HEADER = "purity,luo_park_mub_avg,bound2_mub_avg"

_CHUNK = 1 << 16

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
    B~ = U diag(b) U^dag, u_jl = <j|b_l>; b and the table u_jl conj(u_kl) give the
    |B~'_jk|^2 tables, and the bound kernel's reductions sum them into nonnegative columns.
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

    # A commutes with rho, so V(A) = C(A), and the table of the diagonal A~' is one row
    centered_a = a - (a @ lams)[:, None]
    factor_a = _weighted_sum(np.square(centered_a)[:, None, :], lams)
    factor_b = _root_weighted_sum(weights, np.sqrt(lams))
    # |[A,B]~_jk|^2 = (a_j - a_k)^2 |B~_jk|^2: centering moved only the diagonal, where a_j = a_k
    gaps = a[:, :, None] - a[:, None, :]
    weights *= np.square(gaps, out=gaps)
    comm_norm = _weighted_sum(weights, lams)
    return np.column_stack([comm_norm, factor_a * factor_b, factor_a, factor_b])


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

    Both vanish (below 1e-10) for every spectrum: a mutually unbiased pair's
    complementarity is invisible to them.
    """
    rho = DensityMatrix.from_spectrum(rho_spectrum)
    report = bound_report(pair.observable_a(), pair.observable_b(), rho)
    return report.robertson, report.schrodinger


def mub_lp_average(lams) -> float:
    """Pair-averaged Luo-Park bound for a mutually unbiased pair, given the state spectrum.

    (1 - sum lam^2) ((sum sqrt(lam))^2 - 1) / d^3.
    """
    lam = checked_spectrum(lams)
    d = checked_dim(lam.shape[0])
    return float((1.0 - lam @ lam) * (np.sqrt(lam).sum() ** 2 - 1.0) / d**3)


def mub_b2_average(lams) -> float:
    """Pair-averaged conjectured bound: lam1 lam2 / (lam1 + lam2) * 2 (d-1) / d^3."""
    lam = np.sort(checked_spectrum(lams))
    d = checked_dim(lam.shape[0])
    denom = float(lam[0] + lam[1])
    if denom <= 0.0:
        return 0.0
    return float(lam[0] * lam[1] / denom) * mub_commutator_norm_average(d)


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


def mc_mub_average(
    dim: int, lams, samples: int, rng: np.random.Generator, phases: np.ndarray | None = None
) -> MubAverages:
    """Monte Carlo averages over independent uniform unit spectra of both observables.

    The commutator-norm mean matches :func:`mub_commutator_norm_average`, the
    Luo-Park term matches :func:`mub_lp_average`, and the factors match
    (1 - sum lam^2)/d and ((sum sqrt(lam))^2 - 1)/d^2.  ``phases`` is checked
    as in :func:`mub_pair`.
    """
    if samples < 10_000:
        raise ValueError(f"need at least 10^4 samples, got {samples}")
    lam = checked_spectrum(lams, checked_dim(dim))
    ph = fourier_phases(dim) if phases is None else _checked_phases(dim, phases)
    ests = sequential_moments(partial(mub_samples, ph, lam), samples, _CHUNK, rng).estimates()
    return MubAverages(comm_norm=ests[0], lp_term=ests[1], lp_factor_a=ests[2], lp_factor_b=ests[3])


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

    Columns follow ``FIG2_HEADER``: purity, Luo-Park average, conjectured
    bound average.  The second column never exceeds the third.
    """
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    grid = np.linspace(0.5, 1.0, points)
    rows = np.empty((points, 3))
    for i, p in enumerate(grid):
        lam = qubit_spectrum_from_purity(float(p))
        rows[i] = (float(p), mub_lp_average(lam), mub_b2_average(lam))
    return rows
