"""Dense complex matrix primitives used by every other module.

All functions operate on plain complex ``numpy`` arrays.  Wherever a matrix
argument is expected, any object exposing a ``.matrix`` attribute (density
matrices, observables) is accepted as well, which keeps this module free of
upward imports.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NumericalConsistencyError

#: The one round-off tolerance on Hermiticity and imaginary residues, times max(1, scale).
HERMITICITY_TOL = 1e-10

#: The one round-off floor: nonnegative quantities below it times max(1, scale) are errors.
ROUNDOFF_FLOOR = -1e-12


def nonnegative(x, what: str, error=NumericalConsistencyError, scale=1.0):
    """``x`` clipped at 0; ``error`` naming ``what`` if its minimum is below ``ROUNDOFF_FLOOR``
    times max(1, ``scale``), the size of the quantity.
    A NaN is not below it and passes through, for the caller's finiteness check."""
    x = np.asarray(x)
    if x.min(initial=np.inf) < ROUNDOFF_FLOOR * max(1.0, scale):
        raise error(f"{what} is negative: {x.min():.3e}")
    return np.maximum(x, 0.0)


def checked_real(value, scale, what: str):
    """The real part of ``value``, a real trace up to round-off whose Cauchy-Schwarz bound is
    ``scale`` (both entrywise); NumericalConsistencyError naming ``what`` unless it is finite
    with an imaginary residue of at most ``HERMITICITY_TOL`` times max(1, ``scale``)."""
    value = np.asarray(value)
    if not np.isfinite(value).all():
        raise NumericalConsistencyError(f"{what} is non-finite")
    residue = np.max(np.abs(value.imag) / np.maximum(1.0, scale), initial=0.0)
    if not residue <= HERMITICITY_TOL:
        raise NumericalConsistencyError(f"{what} has relative imaginary residue {residue:.3e}")
    return value.real


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

    Goes through :func:`checked_real` and :func:`nonnegative`, both at the scale
    |A|_F^2 |W|_F that bounds the trace.
    """
    am = as_matrix(a, "A")
    wm = as_matrix(weight, "weight")
    scale = frobenius_norm_sq(am) * np.linalg.norm(wm)
    value = checked_real(weighted_inner_product(am, am, wm), scale, "weighted norm")
    return float(nonnegative(value, "weighted norm", scale=scale))


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate finiteness and Hermiticity within ``HERMITICITY_TOL`` times
    max(1, |A|_F) (Frobenius) and symmetrize.

    Inputs inside tolerance are returned as (A + A^dag)/2 so that round-off
    from upstream arithmetic never leaks into spectral routines.
    """
    am = as_matrix(a, name)
    if not np.isfinite(am).all():
        raise NotHermitianError(f"{name} has a non-finite entry")
    defect = float(np.linalg.norm(am - am.conj().T))
    if not defect <= HERMITICITY_TOL * max(1.0, np.linalg.norm(am)):
        raise NotHermitianError(
            f"{name} deviates from Hermitian by {defect:.3e} (relative tol {HERMITICITY_TOL:.1e})"
        )
    return (am + am.conj().T) / 2.0
