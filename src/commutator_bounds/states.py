"""Validated density matrices and observables, Bloch conversions, random sampling.

Sampling routines take an explicit ``numpy.random.Generator`` so callers own
the stream; nothing here touches global RNG state.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, EigensolverError, InvalidStateError, NotHermitianError
from .linalg import checked_dim, frozen, nonnegative, require_hermitian

#: Allowed deviation of the trace from 1 before rejection.
TRACE_TOL = 1e-10

#: Allowed overshoot of |c| beyond the Bloch ball.
BLOCH_TOL = 1e-12

PAULI_X = frozen(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
PAULI_Y = frozen(np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex))
PAULI_Z = frozen(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
PAULIS = frozen(np.stack([PAULI_X, PAULI_Y, PAULI_Z]))


def checked_spectrum(spectrum, dim: int | None = None) -> np.ndarray:
    """``spectrum`` as floats in its order, round-off negatives set to 0; InvalidStateError
    unless it is 1-d with ``dim`` entries (any number but 0 when ``dim`` is None), finite,
    has no entry below ``linalg.ROUNDOFF_FLOOR`` and sums to 1 within ``TRACE_TOL``."""
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim != 1 or lam.shape[0] < 1:
        raise InvalidStateError(f"spectrum must be a 1-d sequence, got shape {lam.shape}")
    if dim is not None and lam.shape[0] != dim:
        raise InvalidStateError(f"spectrum must have {dim} entries, got {lam.shape[0]}")
    if not np.isfinite(lam).all():
        raise InvalidStateError("spectrum has a non-finite entry")
    clipped = nonnegative(lam, "spectrum entry", InvalidStateError)
    total = float(lam.sum())
    if not abs(total - 1.0) <= TRACE_TOL:
        raise InvalidStateError(f"spectrum sums to {total!r}, expected 1")
    return clipped


def checked_bloch(c) -> np.ndarray:
    """``c`` as floats; InvalidStateError unless a 3-vector of length <= 1 + ``BLOCH_TOL``."""
    cv = np.asarray(c, dtype=float)
    if cv.shape != (3,):
        raise InvalidStateError(f"Bloch vector must have 3 components, got shape {cv.shape}")
    length = float(np.linalg.norm(cv))
    if not length <= 1.0 + BLOCH_TOL:
        raise InvalidStateError(f"Bloch vector has length {length!r} > 1")
    return cv


class DensityMatrix:
    """A validated quantum state with cached spectral data.

    Construction rejects the input unless it passes ``require_hermitian``
    (finite entries, Hermitian within 1e-10) and its eigenvalues pass
    :func:`checked_spectrum`.  The input is symmetrized and decomposed with
    LAPACK; round-off-negative eigenvalues are clipped to zero, the spectrum
    renormalized, and the matrix rebuilt from both.  The ascending spectrum,
    eigenvectors and purity are cached as write-protected arrays, so
    instances are safe to share between concurrent tasks.
    """

    __slots__ = ("_matrix", "_spectrum", "_vectors", "_purity")

    def __init__(self, matrix) -> None:
        try:
            mat = require_hermitian(matrix, name="density matrix")
        except NotHermitianError as exc:
            raise InvalidStateError(str(exc)) from exc
        try:
            lam, vec = np.linalg.eigh(mat)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"density matrix eigensolver did not converge: {exc}") from exc
        lam = checked_spectrum(lam)
        lam /= lam.sum()
        mat = (vec * lam) @ vec.conj().T
        self._matrix = frozen((mat + mat.conj().T) / 2.0)
        self._spectrum = frozen(lam)
        self._vectors = frozen(vec)
        self._purity = float(lam @ lam)

    @classmethod
    def from_bloch(cls, c) -> "DensityMatrix":
        """Qubit state (I + c . sigma)/2 for a Bloch vector inside the unit ball."""
        cv = checked_bloch(c)
        mat = 0.5 * (np.eye(2, dtype=complex) + np.einsum("k,kij->ij", cv, PAULIS))
        return cls(mat)

    @classmethod
    def from_spectrum(cls, spectrum) -> "DensityMatrix":
        """Diagonal state with the given eigenvalues (order preserved in the matrix)."""
        lam = checked_spectrum(spectrum)
        return cls(np.diag(lam / lam.sum()).astype(complex))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[0])

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, clipped and renormalized."""
        return self._spectrum

    @property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvector columns matching :attr:`spectrum` (gauge is arbitrary)."""
        return self._vectors

    @property
    def purity(self) -> float:
        return self._purity

    def bloch_vector(self) -> np.ndarray:
        """Bloch components Tr(rho sigma_k); qubits only."""
        if self.dim != 2:
            raise DimensionMismatchError(f"Bloch vector defined for dim 2, not {self.dim}")
        return np.einsum("kij,ji->k", PAULIS, self._matrix).real

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, purity={self._purity:.6f})"


def as_state(rho) -> DensityMatrix:
    """``rho`` if it is a :class:`DensityMatrix`, else the array validated as one."""
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


class Observable:
    """A Hermitian matrix representing a measurable quantity."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        self._matrix = frozen(require_hermitian(matrix, name="observable"))

    @classmethod
    def from_bloch(cls, vec) -> "Observable":
        """Traceless qubit observable a . sigma."""
        av = np.asarray(vec, dtype=float)
        if av.shape != (3,):
            raise DimensionMismatchError(f"axis must have 3 components, got shape {av.shape}")
        return cls(np.einsum("k,kij->ij", av, PAULIS))

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[0])

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim})"


def sample_unit_vectors(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` rows drawn uniformly (Haar) from the unit sphere in R^dim.

    Normalized standard Gaussian vectors; robust in any dimension, unlike
    rejection sampling.
    """
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # A zero draw has probability zero but would poison the batch.
    bad = norms[:, 0] < 1e-12
    while np.any(bad):
        g[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        bad = norms[:, 0] < 1e-12
    return g / norms


def sample_density(dim: int, spec: str, rng: np.random.Generator) -> DensityMatrix:
    """Draw a random state from the ensemble named by ``spec``:

    - ``"hilbert-schmidt"``: G G^dag / Tr(G G^dag) with complex Gaussian G
      (generic full states, the default ensemble for comparisons);
    - ``"flat-simplex"``: diagonal state with Dirichlet(1, ..., 1) spectrum,
      sorted ascending (spectra uniform on the simplex).

    Any other ``spec`` raises :class:`InvalidStateError`.
    """
    checked_dim(dim)
    if not isinstance(spec, str) or spec not in ("hilbert-schmidt", "flat-simplex"):
        raise InvalidStateError(f"unknown sampling spec {spec!r}")
    if spec == "hilbert-schmidt":
        return DensityMatrix(sample_density_batch(dim, 1, rng)[0])
    return DensityMatrix.from_spectrum(np.sort(rng.dirichlet(np.ones(dim))))


def sample_hermitian(dim: int, rng: np.random.Generator) -> Observable:
    """Random Hermitian observable (G + G^dag)/2 with complex Gaussian G."""
    return Observable(sample_hermitian_batch(dim, 1, rng)[0])


def sample_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with phase fixing."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def sample_hermitian_batch(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, dim) stack of Gaussian Hermitian matrices, for bulk corpora.

    Raw arrays for the vectorized evaluation paths; :func:`sample_hermitian`
    draws one row of it.
    """
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return (g + g.conj().transpose(0, 2, 1)) / 2.0


def sample_density_batch(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, dim) stack of random full states, G G^dag normalized to unit trace.

    Raw arrays without per-state validation, for bulk corpora;
    ``sample_density(dim, "hilbert-schmidt", rng)`` validates one row of it.
    """
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    w = g @ g.conj().transpose(0, 2, 1)
    traces = np.einsum("nii->n", w).real
    return w / traces[:, None, None]
