"""Maximization of the weighted commutator-to-norm ratio over matrix pairs.

For a fixed full-rank state the target

    R(A, B) = |[A, B]|_rho^2 / (|A|_rho^2 |B|_rho^2)

is conjectured to have supremum (lam1 + lam2) / (lam1 lam2) over nonzero
complex (and already over Hermitian) matrices, with a proven ceiling of
2 lam_max / lam_min^2.  With one argument fixed, R is a generalized Rayleigh
quotient in the vectorized other argument.  In rho's eigenbasis its
denominator form is diagonal, so after a diagonal rescaling each half step of
the alternating maximization is the top eigenpair of a standard symmetric
form (real in Hermitian mode), and that eigenvalue is the new ratio.  Each
half step is globally optimal for its block, which makes the ratio monotone
nondecreasing.
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
from .linalg import (
    as_matrix,
    checked_dim,
    frobenius_norm_sq,
    frozen,
    nonnegative,
    require_same_dim,
    weighted_norm_sq,
)
from .states import DensityMatrix, Observable, as_state

logger = logging.getLogger(__name__)

#: Seminorms at most this times the squared Frobenius norm make the ratio undefined.
NULL_NORM_TOL = 1e-14

#: Hard ceiling slack for the proven constant.
CEILING_SLACK = 1e-9

#: Relative excess over the conjectured constant that counts as a counterexample.
EXCEEDANCE_SLACK = 1e-6

#: Allowed relative dip of the ratio between half steps.
MONOTONE_SLACK = 1e-12

#: Allowed relative gap between the ascent's last eigenvalue and the ratio
#: re-evaluated from the reported matrices.
CONSISTENCY_SLACK = 1e-10


def _spectrum_of(rho) -> np.ndarray:
    """The ascending spectrum of ``states.as_state(rho)``, or of a 1-d raw spectrum, which may be
    unnormalized but not non-finite or negative (InvalidStateError); ``checked_dim`` of its size."""
    raw = np.ndim(rho) == 1
    lam = np.sort(np.asarray(rho, dtype=float)) if raw else as_state(rho).spectrum
    checked_dim(lam.size)
    if not raw:
        return lam
    if not np.isfinite(lam).all():
        raise InvalidStateError("spectrum has a non-finite entry")
    return nonnegative(lam, "spectrum entry", InvalidStateError, scale=lam[-1])


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
    Arguments annihilated by the seminorm, |A|_rho^2 <= ``NULL_NORM_TOL`` |A|_F^2,
    are rejected.
    """
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    require_same_dim(am, bm)
    na = weighted_norm_sq(am, rho)
    nb = weighted_norm_sq(bm, rho)
    if not all(n > NULL_NORM_TOL * frobenius_norm_sq(m) for n, m in ((na, am), (nb, bm))):
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
    rho = as_state(rho)
    lam = _spectrum_of(rho)
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


def _hermitian_entries(dim: int) -> tuple[np.ndarray, ...]:
    """Nonzero entries H_r[a, b] = h of the orthonormal Hermitian basis.

    The basis is E_jj, then (E_jk + E_kj)/sqrt 2, then i(E_kj - E_jk)/sqrt 2
    for j < k.  Returns the arrays (r, a, b, h).
    """
    j, k = np.triu_indices(dim, 1)
    diag = np.arange(dim)
    sym = dim + np.arange(j.size)
    skew = sym + j.size
    half = math.sqrt(0.5)
    r = np.concatenate([diag, sym, sym, skew, skew])
    a = np.concatenate([diag, j, k, j, k])
    b = np.concatenate([diag, k, j, k, j])
    h = np.concatenate(
        [
            np.ones(dim),
            np.full(2 * j.size, half),
            np.full(j.size, -1j * half),
            np.full(j.size, 1j * half),
        ]
    )
    return r, a, b, h


class _RatioProblem:
    """Quadratic-form machinery shared by all restarts for one state.

    Everything happens in rho's eigenbasis, where the weighted norm
    Tr(X^dag X rho) = sum_jk |X_jk|^2 lam_k is a diagonal form D in the
    coordinates: lam_k on E_jk in complex mode, and lam_j on E_jj and
    (lam_j + lam_k)/2 on both off-diagonal elements of the Hermitian basis.
    With B fixed, the commutator is a linear map G of A's coordinates, and
    each entry of G is a signed sum of entries of B.  In complex mode G is
    the row-major vectorization K = I ox B^T - B ox I.  In Hermitian mode G
    maps to the real coordinates of the Hermitian matrix i[A, B]:
    G_rc = Tr(H_r i[H_c, B]) = -2 Im Tr(H_r H_c B), real arithmetic
    throughout.  In both modes G is assembled by one ``bincount`` over index
    arrays fixed per state, already scaled to D^(1/2) G D^(-1/2), so that a
    half step is the top eigenpair of the standard form G^dag G.  The same form
    serves both sides, since [A, B] = -[B, A].
    """

    def __init__(self, rho: DensityMatrix, mode: str) -> None:
        self.rho = rho
        self.mode = mode
        d = rho.dim
        n = d * d
        self.dim = d
        self.vectors = rho.eigenvectors
        lam = rho.spectrum
        if mode == "hermitian":
            r, a, b, h = _hermitian_entries(d)
            # Each H_r[a, b] pairs with the 2d - 1 entries H_c[b, e] in row b.
            partner = np.argsort(a, kind="stable").reshape(d, 2 * d - 1)[b]
            prod = h[:, None] * h[partner]
            real = prod.imag == 0.0
            row = np.broadcast_to(r[:, None], partner.shape)
            col = r[partner]
            # Im(prod B_ea) reads Im B_ea for a real product and Re B_ea otherwise.
            src = 2 * (b[partner] * d + a[:, None]) + real
            val = -2.0 * np.where(real, prod.real, prod.imag)
            dst = row * n + col
            pair = (lam[:, None] + lam[None, :])[np.triu_indices(d, 1)] / 2.0
            weight = np.concatenate([lam, pair, pair])
            self.slots = n * n
            # Coordinate, slot in the real view of a d x d matrix, and value of
            # each basis entry, to rebuild a matrix from its coordinates.
            self.entries = (r, 2 * (a * d + b) + (h.imag != 0.0), h.real + h.imag)
        else:
            x, y, z = np.indices((d, d, d)).reshape(3, -1)
            # [A, B]_xz = sum_y A_xy B_yz - B_xy A_yz, for the real and imaginary parts.
            row = np.tile(x * d + z, 4)
            col = np.tile(np.concatenate([x * d + y, y * d + z]), 2)
            part = np.repeat([0, 1], 2 * x.size)
            src = 2 * np.tile(np.concatenate([y * d + z, x * d + y]), 2) + part
            val = np.tile(np.repeat([1.0, -1.0], x.size), 2)
            dst = 2 * (row * n + col) + part
            weight = np.tile(lam, d)
            self.slots = 2 * n * n
        root = np.sqrt(weight)
        self.inv_root = 1.0 / root
        self.dst = dst.ravel()
        self.src = src.ravel()
        self.coef = (val * root[row] / root[col]).ravel()

    def to_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        return self.vectors.conj().T @ m @ self.vectors

    def from_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        return self.vectors @ m @ self.vectors.conj().T

    def half_step(self, other: np.ndarray) -> tuple[np.ndarray, float]:
        """Globally maximize the ratio over one argument, the other fixed.

        Both matrices are in the eigenbasis, and ``other`` has unit weighted
        norm.  Returns the new matrix, of unit weighted norm, and the ratio
        of the pair, which is the top eigenvalue.
        """
        d = self.dim
        n = d * d
        entries = other.view(float).ravel()
        g = np.bincount(self.dst, self.coef * entries[self.src], minlength=self.slots)
        if self.mode == "hermitian":
            g = g.reshape(n, n)
            form = g.T @ g
        else:
            g = g.view(complex).reshape(n, n)
            form = g.conj().T @ g
        # Imported here so that only the optimizer pays for scipy; the call goes
        # through the module attribute, where a profiler may have wrapped it.
        import scipy.linalg

        try:
            mu, v = scipy.linalg.eigh(form, subset_by_index=[n - 1, n - 1])
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"half-step eigenproblem failed: {exc}") from exc
        x = v[:, 0] * self.inv_root
        if self.mode == "hermitian":
            coord, slot, h = self.entries
            new = np.bincount(slot, x[coord] * h, minlength=2 * n).view(complex)
        else:
            new = x
        return new.reshape(d, d), float(mu[0])

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
    b = problem.to_eigenbasis(b)

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
        a, value = problem.half_step(b)
        record(value)
        b, current = problem.half_step(a)
        record(current)
        iterations = it + 1
        if previous is not None and current - previous <= tol * max(previous, 1e-300):
            converged = True
            break
        previous = current
    a = problem.from_eigenbasis(a)
    b = problem.from_eigenbasis(b)
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
    rho = as_state(rho)
    if float(_spectrum_of(rho)[0]) <= 0.0:
        raise InvalidStateError("ratio is unbounded for rank-deficient states")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
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

    a, b, last, trace, iterations, converged = best
    achieved = ratio(a, b, rho)
    if abs(achieved - last) > CONSISTENCY_SLACK * abs(last):
        raise NumericalConsistencyError(
            f"ratio {achieved!r} of the reported pair disagrees with the ascent's {last!r}"
        )
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
