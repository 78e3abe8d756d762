"""Maximization of the weighted commutator-to-norm ratio over matrix pairs.

For a fixed full-rank state the target

    R(A, B) = |[A, B]|_rho^2 / (|A|_rho^2 |B|_rho^2)

is conjectured to have supremum (lam1 + lam2) / (lam1 lam2) over nonzero
complex (and already over Hermitian) matrices, with a proven ceiling of
2 lam_max / lam_min^2.  With one argument fixed, R is a generalized Rayleigh
quotient in the vectorized other argument, so alternating maximization
solves a top generalized eigenpair per half step; each half step is globally
optimal for its block, which makes the ratio monotone nondecreasing.
Gradient ascent was rejected: step sizes turn fragile near the boundary of
the positive cone of denominator forms, while the eigenpair step has no
tuning at all.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError, InvalidStateError, NumericalConsistencyError
from .linalg import as_matrix, frozen, require_same_dim, weighted_norm_sq
from .states import DensityMatrix, Observable

logger = logging.getLogger(__name__)

#: Seminorms below this make the ratio undefined.
NULL_NORM_TOL = 1e-14

#: Hard ceiling slack for the proven constant.
CEILING_SLACK = 1e-9

#: Relative excess over the conjectured constant that counts as a counterexample.
EXCEEDANCE_SLACK = 1e-6

#: Allowed relative dip of the ratio between half steps.
MONOTONE_SLACK = 1e-12


def _spectrum_of(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return np.asarray(rho.spectrum, dtype=float)
    lam = np.sort(np.asarray(rho, dtype=float).ravel())
    if lam.size < 2:
        raise InvalidStateError("spectrum needs at least two eigenvalues")
    if float(lam[0]) < -1e-12:
        raise InvalidStateError(f"spectrum has negative entry {float(lam[0]):.3e}")
    return np.clip(lam, 0.0, None)


def conjectured_constant(rho) -> float:
    """(lam1 + lam2) / (lam1 lam2) for the two smallest eigenvalues.

    Accepts a density matrix or a raw spectrum (which may be unnormalized;
    the all-ones spectrum gives the classic unweighted constant 2).  Returns
    infinity for rank-deficient states, where the ratio is unbounded.
    """
    lam = _spectrum_of(rho)
    if float(lam[0]) <= 0.0:
        return math.inf
    return float((lam[0] + lam[1]) / (lam[0] * lam[1]))


def loose_constant(rho) -> float:
    """Proven ceiling 2 lam_max / lam_min^2; infinite for rank-deficient states.

    Never smaller than :func:`conjectured_constant`.
    """
    lam = _spectrum_of(rho)
    if float(lam[0]) <= 0.0:
        return math.inf
    return float(2.0 * lam[-1] / lam[0] ** 2)


def ratio(a, b, rho) -> float:
    """R(A, B) = |[A,B]|_rho^2 / (|A|_rho^2 |B|_rho^2).

    Invariant under nonzero rescaling of either argument.  Shifting an
    argument by a multiple of the identity leaves the numerator unchanged
    but not the denominators, so the full ratio is not shift-invariant.
    Arguments annihilated by the seminorm are rejected.
    """
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    require_same_dim(am, bm)
    na = weighted_norm_sq(am, rho)
    nb = weighted_norm_sq(bm, rho)
    if na <= NULL_NORM_TOL or nb <= NULL_NORM_TOL:
        raise ValueError("ratio undefined: an argument is annihilated by the seminorm")
    return weighted_norm_sq(am @ bm - bm @ am, rho) / (na * nb)


def equality_witness(rho: DensityMatrix) -> tuple[Observable, Observable]:
    """The explicit Hermitian pair attaining the conjectured constant.

    With |1>, |2> the eigenvectors of the two smallest eigenvalues,
    A = lam2 |1><1| - lam1 |2><2| and B = |1><2| + |2><1| give
    |[A,B]|_rho^2 = (lam1 + lam2)^3, |A|_rho^2 = lam1 lam2 (lam1 + lam2),
    and |B|_rho^2 = lam1 + lam2, hence R = (lam1 + lam2)/(lam1 lam2).
    Undefined for rank-deficient states.
    """
    lam = rho.spectrum
    if float(lam[0]) <= 0.0:
        raise InvalidStateError("equality witness undefined for rank-deficient states")
    v1 = rho.eigenvectors[:, 0]
    v2 = rho.eigenvectors[:, 1]
    p1 = np.outer(v1, v1.conj())
    p2 = np.outer(v2, v2.conj())
    cross = np.outer(v1, v2.conj())
    a = float(lam[1]) * p1 - float(lam[0]) * p2
    b = cross + cross.conj().T
    return Observable(a), Observable(b)


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Outcome of one alternating-maximization run for a fixed state."""

    dim: int
    spectrum: np.ndarray
    achieved_ratio: float
    conjectured_constant: float
    loose_constant: float
    witness_a: np.ndarray
    witness_b: np.ndarray
    iterations: int
    restarts_used: int
    converged: bool
    mode: str
    trace: tuple[float, ...]

    @property
    def exceeds_conjecture(self) -> bool:
        """True when the achieved ratio lands above the conjectured constant."""
        return self.achieved_ratio > self.conjectured_constant * (1.0 + EXCEEDANCE_SLACK)

    @property
    def relative_deviation(self) -> float:
        """|achieved / conjectured - 1|."""
        return abs(self.achieved_ratio / self.conjectured_constant - 1.0)


def _hermitian_basis(dim: int) -> np.ndarray:
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


def _vec(m: np.ndarray) -> np.ndarray:
    return m.reshape(-1, order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


class _RatioProblem:
    """Quadratic-form machinery shared by all restarts for one state.

    Column-stacking vectorization: vec([A, B]) = (B^T ox I - I ox B) vec(A)
    and Tr(X^dag X rho) = vec(X)^dag (rho^T ox I) vec(X).  The forms are
    assembled densely; at the supported sizes they are tiny.
    """

    def __init__(self, rho: DensityMatrix, mode: str) -> None:
        self.rho = rho
        self.mode = mode
        self.dim = rho.dim
        d = rho.dim
        self.eye = np.eye(d)
        self.weight = np.kron(rho.matrix.T, self.eye)
        if mode == "hermitian":
            basis = _hermitian_basis(d)
            self.basis = basis
            self.trans = np.stack([_vec(m) for m in basis], axis=1)  # unitary d^2 x d^2
            self.weight_red = (self.trans.conj().T @ self.weight @ self.trans).real
        else:
            self.basis = None
            self.trans = None
            self.weight_red = self.weight

    def half_step(self, other: np.ndarray, side: str) -> np.ndarray:
        """Globally maximize the ratio over one argument, the other fixed.

        Returns the new matrix, normalized to unit weighted norm.
        """
        d = self.dim
        if side == "a":
            k = np.kron(other.T, self.eye) - np.kron(self.eye, other)
        else:
            k = np.kron(self.eye, other) - np.kron(other.T, self.eye)
        m = k.conj().T @ self.weight @ k
        if self.mode == "hermitian":
            m = (self.trans.conj().T @ m @ self.trans).real
        n = m.shape[0]
        # Imported here so that only the optimizer pays for scipy; the call goes
        # through the module attribute, where a profiler may have wrapped it.
        import scipy.linalg

        try:
            _, v = scipy.linalg.eigh(m, self.weight_red, subset_by_index=[n - 1, n - 1])
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"half-step eigenproblem failed: {exc}") from exc
        x = v[:, 0]
        if self.mode == "hermitian":
            new = np.einsum("i,ijk->jk", x, self.basis)
        else:
            new = _unvec(x, d)
        return new / math.sqrt(weighted_norm_sq(new, self.rho))

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        d = self.dim
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if self.mode == "hermitian":
            g = (g + g.conj().T) / 2.0
        return g


def _ascend(
    problem: _RatioProblem,
    a0: np.ndarray | None,
    b0: np.ndarray,
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float, list[float], int, bool]:
    rho = problem.rho
    b = b0 / math.sqrt(weighted_norm_sq(b0, rho))
    trace: list[float] = []
    if a0 is not None:
        a = a0 / math.sqrt(weighted_norm_sq(a0, rho))
        trace.append(ratio(a, b, rho))
    else:
        a = None

    def record(value: float) -> None:
        if trace and value < trace[-1] - MONOTONE_SLACK * max(1.0, abs(trace[-1])):
            raise NumericalConsistencyError(
                f"ratio decreased across a half step: {trace[-1]!r} -> {value!r}"
            )
        trace.append(value)

    converged = False
    iterations = 0
    previous = trace[-1] if trace else None
    for it in range(max_iters):
        a = problem.half_step(b, side="a")
        record(ratio(a, b, rho))
        b = problem.half_step(a, side="b")
        current = ratio(a, b, rho)
        record(current)
        iterations = it + 1
        if previous is not None and current - previous <= tol * max(previous, 1e-300):
            converged = True
            break
        previous = current
    return a, b, trace[-1], trace, iterations, converged


def maximize_ratio(
    rho: DensityMatrix,
    *,
    restarts: int = 8,
    max_iters: int = 500,
    tol: float = 1e-10,
    mode: str = "hermitian",
    rng: np.random.Generator | None = None,
    seed_witness: bool = True,
) -> OptimizationResult:
    """Alternating maximization of the weighted commutator ratio for one state.

    Runs ``restarts`` random starts plus one start seeded at the analytic
    equality witness; the best run (ties to the earliest start) is reported.
    ``converged`` reflects whether that run's relative gain fell below
    ``tol`` before ``max_iters``.  Requires a full-rank state, since the
    ratio is unbounded otherwise.  The achieved ratio is re-evaluated from
    the reported matrices and always checked against the proven ceiling.

    ``seed_witness=False`` drops the analytic start so the constant must be
    found from random starts alone, which costs more iterations but gives an
    independent check that the supremum is actually attained.
    """
    if mode not in ("hermitian", "complex"):
        raise ValueError(f"mode must be 'hermitian' or 'complex', got {mode!r}")
    if float(rho.spectrum[0]) <= 0.0:
        raise InvalidStateError("ratio is unbounded for rank-deficient states")
    if not seed_witness and restarts < 1:
        raise ValueError("need at least one random restart without the witness start")
    if rng is None:
        rng = np.random.default_rng()

    problem = _RatioProblem(rho, mode)
    starts: list[tuple[np.ndarray | None, np.ndarray]] = []
    if seed_witness:
        wa, wb = equality_witness(rho)
        starts.append((np.array(wa.matrix), np.array(wb.matrix)))
    for _ in range(restarts):
        starts.append((None, problem.random_start(rng)))

    best: tuple | None = None
    restarts_used = 0
    for index, (a0, b0) in enumerate(starts):
        try:
            outcome = _ascend(problem, a0, b0, max_iters, tol)
        except EigensolverError as exc:
            logger.warning("start %d discarded: %s", index, exc)
            continue
        restarts_used += 1
        if best is None or outcome[2] > best[2]:
            best = outcome
    if best is None:
        raise EigensolverError("every start failed in the half-step eigensolver")

    a, b, _, trace, iterations, converged = best
    achieved = ratio(a, b, rho)
    conj = conjectured_constant(rho)
    loose = loose_constant(rho)
    if achieved > loose * (1.0 + CEILING_SLACK):
        raise NumericalConsistencyError(
            f"achieved ratio {achieved!r} exceeds the proven ceiling {loose!r}"
        )
    result = OptimizationResult(
        dim=rho.dim,
        spectrum=frozen(rho.spectrum),
        achieved_ratio=achieved,
        conjectured_constant=conj,
        loose_constant=loose,
        witness_a=frozen(a),
        witness_b=frozen(b),
        iterations=iterations,
        restarts_used=restarts_used,
        converged=converged,
        mode=mode,
        trace=tuple(float(t) for t in trace),
    )
    if result.exceeds_conjecture:
        logger.warning(
            "achieved ratio %r exceeds conjectured constant %r", achieved, conj
        )
    return result


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Entrywise [re, im] serialization of a complex matrix."""
    arr = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_pairs(obj) -> np.ndarray:
    """Inverse of :func:`matrix_to_pairs`."""
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def result_record(result: OptimizationResult) -> dict:
    """JSON-ready record of an optimization run (matrices as [re, im] pairs)."""
    return {
        "dim": result.dim,
        "spectrum": [float(x) for x in result.spectrum],
        "achieved_ratio": result.achieved_ratio,
        "conjectured_constant": result.conjectured_constant,
        "loose_constant": result.loose_constant,
        "relative_deviation": result.relative_deviation,
        "witness_a": matrix_to_pairs(result.witness_a),
        "witness_b": matrix_to_pairs(result.witness_b),
        "iterations": result.iterations,
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "mode": result.mode,
        "exceeds_conjecture": result.exceeds_conjecture,
        "trace": list(result.trace),
    }
