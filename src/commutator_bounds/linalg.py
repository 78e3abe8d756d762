"""Dense complex matrix primitives used by every other module.

All functions operate on plain complex ``numpy`` arrays.  Wherever a matrix
argument is expected, any object exposing a ``.matrix`` attribute (density
matrices, observables) is accepted as well, which keeps this module free of
upward imports.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NumericalConsistencyError

#: Absolute Frobenius tolerance for accepting a matrix as Hermitian.
HERMITICITY_TOL = 1e-10

#: Largest imaginary residue tolerated on analytically-real traces.
IMAG_RESIDUE_TOL = 1e-9

#: The one round-off floor: nonnegative quantities below it are errors, above it read as 0.
ROUNDOFF_FLOOR = -1e-12


def nonnegative(x, what: str, error=NumericalConsistencyError):
    """``x`` clipped at 0; ``error`` naming ``what`` if its minimum is below ``ROUNDOFF_FLOOR``.
    A NaN is not below it and passes through, for the caller's finiteness check."""
    x = np.asarray(x)
    if x.min() < ROUNDOFF_FLOOR:
        raise error(f"{what} is negative: {x.min():.3e}")
    return np.maximum(x, 0.0)


def checked_unit(v, name: str, size: int) -> np.ndarray:
    """``v`` as floats; ValueError unless ``size`` components of unit length within 1e-10."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have {size} components, got shape {arr.shape}")
    length = float(np.linalg.norm(arr))
    if not abs(length - 1.0) <= 1e-10:
        raise ValueError(f"{name} must be a unit vector, |{name}| = {length!r}")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` (array-like or ``.matrix``-bearing object) to a square complex array."""
    arr = np.asarray(getattr(a, "matrix", a), dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def frozen(arr: np.ndarray) -> np.ndarray:
    """Return a write-protected copy of ``arr``."""
    out = np.array(arr)
    out.setflags(write=False)
    return out


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA.  Anti-Hermitian whenever A and B are Hermitian."""
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    require_same_dim(am, bm)
    return am @ bm - bm @ am


def frobenius_norm_sq(a) -> float:
    """Sum of squared entry magnitudes, equal to Tr(A^dag A)."""
    am = as_matrix(a, "A")
    return float(np.sum(np.abs(am) ** 2))


def weighted_inner_product(a, b, weight) -> complex:
    """Semi-inner product Tr(A^dag B W) against a positive-semidefinite weight.

    Conjugate-symmetric, linear in the second argument, and the induced
    quadratic form is nonnegative for any PSD weight.  ``weight`` is usually
    a density matrix; the identity recovers the Hilbert-Schmidt product.
    """
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    wm = as_matrix(weight, "weight")
    require_same_dim(am, bm)
    require_same_dim(am, wm)
    return complex(np.einsum("ji,jk,ki->", am.conj(), bm, wm))


def weighted_norm_sq(a, weight) -> float:
    """Squared weighted Frobenius semi-norm Tr(A^dag A W).

    The imaginary residue is checked against ``IMAG_RESIDUE_TOL`` and then
    discarded; the real part goes through :func:`nonnegative`.
    """
    value = weighted_inner_product(a, a, weight)
    if not abs(value.imag) <= IMAG_RESIDUE_TOL:
        raise NumericalConsistencyError(
            f"weighted norm has imaginary residue {value.imag:.3e} (tol {IMAG_RESIDUE_TOL:.1e})"
        )
    return float(nonnegative(value.real, "weighted norm"))


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate finiteness and Hermiticity within ``HERMITICITY_TOL`` (absolute,
    Frobenius) and symmetrize.

    Inputs inside tolerance are returned as (A + A^dag)/2 so that round-off
    from upstream arithmetic never leaks into spectral routines.
    """
    am = as_matrix(a, name)
    if not np.isfinite(am).all():
        raise NotHermitianError(f"{name} has a non-finite entry")
    defect = float(np.linalg.norm(am - am.conj().T))
    if not defect <= HERMITICITY_TOL:
        raise NotHermitianError(
            f"{name} deviates from Hermitian by {defect:.3e} (tol {HERMITICITY_TOL:.1e})"
        )
    return (am + am.conj().T) / 2.0

