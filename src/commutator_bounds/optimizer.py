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
nondecreasing.  numpy alone solves it (:func:`_top_pair`): Rayleigh-Ritz on a
Krylov block warm-started from the side's previous iterate, with a Cholesky
factorization that certifies the Ritz value as the top eigenvalue, or a dense
``eigh`` on a start's first half step and on small forms.
Gradient ascent was rejected: step sizes turn fragile near the boundary of
the positive cone of denominator forms, while the eigenpair step has no
tuning at all.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import EigensolverError, InvalidStateError, NumericalConsistencyError
from .linalg import (
    as_matrix,
    checked_dim,
    commutator,
    frobenius_norm_sq,
    frozen,
    nonnegative,
    weighted_norm_sq,
)
from .states import DensityMatrix, Observable, as_state, sample_hermitian_batch

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
    na = weighted_norm_sq(am, rho)
    nb = weighted_norm_sq(bm, rho)
    if not all(n > NULL_NORM_TOL * frobenius_norm_sq(m) for n, m in ((na, am), (nb, bm))):
        raise ValueError("ratio undefined: an argument is annihilated by the seminorm")
    return weighted_norm_sq(commutator(am, bm), rho) / (na * nb)


def _witness_pair(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The equality witness in rho's eigenbasis: A = lam2 E_00 - lam1 E_11, B = E_01 + E_10."""
    a, b = np.zeros((2, lam.size, lam.size), dtype=complex)
    a[0, 0], a[1, 1] = lam[1], -lam[0]
    b[0, 1] = b[1, 0] = 1.0
    return a, b


def _from_eigenbasis(vectors: np.ndarray, m: np.ndarray) -> np.ndarray:
    """V X V^dag: the matrix X written in the eigenbasis ``vectors``, in the original basis."""
    return vectors @ m @ vectors.conj().T


def equality_witness(rho: DensityMatrix | np.ndarray) -> tuple[Observable, Observable]:
    """The explicit Hermitian pair attaining the conjectured constant.

    With |1>, |2> the eigenvectors of the two smallest eigenvalues,
    A = lam2 |1><1| - lam1 |2><2| and B = |1><2| + |2><1| give
    |[A,B]|_rho^2 = (lam1 + lam2)^3, |A|_rho^2 = lam1 lam2 (lam1 + lam2),
    and |B|_rho^2 = lam1 + lam2, hence R = (lam1 + lam2)/(lam1 lam2).
    It is the eigenbasis start of :func:`maximize_ratio`, rotated back by V.
    Undefined for rank-deficient states.  A raw matrix ``rho`` goes through ``states.as_state``.
    """
    rho = as_state(rho)
    lam = _spectrum_of(rho)
    if float(lam[0]) <= 0.0:
        raise InvalidStateError("equality witness undefined for rank-deficient states")
    return tuple(Observable(_from_eigenbasis(rho.eigenvectors, m)) for m in _witness_pair(lam))


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


#: Dimension m of the Krylov block span{x, Fx, ..., F^(m-1) x} of a warm-started half step.
#: Unrestarted, the warm half steps of ascents at d = 8..12 reached the residual bound
#: after a median of 7-8 products in Hermitian mode and 10-11 in complex mode; of
#: m = 8, 10, 12 and 16, 10 was there the fastest per call or within 5 % of it.
KRYLOV_DIM = 10

#: Forms with fewer rows (d < 8) go to the dense ``eigh``, which there costs no more
#: than one block's hundred-odd numpy calls (measured on 1 BLAS thread).
KRYLOV_MIN_ROWS = 64


def _dense_top(form: np.ndarray) -> tuple[float, np.ndarray]:
    """The top eigenpair of the Hermitian ``form`` from numpy's dense ``eigh``."""
    values, vectors = np.linalg.eigh(form)
    return float(values[-1]), vectors[:, -1]


def _ritz_floor(form_abs: np.ndarray, u: np.ndarray) -> float:
    """n eps |||F| |u|||: the rounding of a computed residual F u - theta u of the unit ``u``,
    which bounds gamma_n |||F| |u||| (gamma_n ~ n eps / 2) of the product and eps theta of
    theta u.  ``form_abs`` is |F|, entrywise."""
    return form_abs.shape[0] * np.finfo(float).eps * float(np.linalg.norm(form_abs @ np.abs(u)))


def _krylov_ritz(
    form: np.ndarray, x: np.ndarray, floor: float
) -> tuple[float, np.ndarray, float]:
    """The top Ritz pair of ``form`` on span{x, Fx, ..., F^(m-1) x}, m = :data:`KRYLOV_DIM`,
    and the norm of its residual.

    ``x`` is a unit vector.  The orthonormal basis comes from Lanczos with full
    reorthogonalization, Gram-Schmidt twice (Parlett, *The Symmetric Eigenvalue
    Problem*, ch. 13).  The block stops early where a new direction is at most
    ``floor`` long: then the span is invariant as far as the rounding shows.
    """
    basis = np.empty((KRYLOV_DIM, x.size), dtype=form.dtype)
    products = np.empty_like(basis)
    basis[0] = x
    k = 1
    while True:
        p = np.matmul(form, basis[k - 1], out=products[k - 1])
        if k == KRYLOV_DIM:
            break
        q = basis[:k]
        qh = q.conj()
        w = p - (qh @ p) @ q
        w -= (qh @ w) @ q
        beta = math.sqrt(np.vdot(w, w).real)
        if beta <= floor:
            break
        np.divide(w, beta, out=basis[k])
        k += 1
    thetas, ys = np.linalg.eigh(basis[:k].conj() @ products[:k].T)
    y = ys[:, -1]
    u = y @ basis[:k]
    theta = float(thetas[-1])
    return theta, u, float(np.linalg.norm(y @ products[:k] - theta * u))


def _top_pair(form: np.ndarray, warm: np.ndarray | None) -> tuple[float, np.ndarray]:
    """The top eigenvalue of the Hermitian positive semidefinite ``form`` and a unit
    eigenvector for it.

    With no ``warm`` start, or below :data:`KRYLOV_MIN_ROWS` rows, numpy's dense ``eigh``
    solves the form.  Otherwise Rayleigh-Ritz on the Krylov block from ``warm``
    (:func:`_krylov_ritz`) restarts from its Ritz vector u until the residual
    r = F u - theta u is no longer than the rounding of its own computation
    (:func:`_ritz_floor`), for at most ceil(n / m) blocks: as many products as an
    unrestarted block needs to fill the space.  The span holds ``warm``, so theta is
    at least its Rayleigh quotient.  Then the Cholesky factorization of sigma I - F,
    sigma = theta + 2 |r| + floor, certifies theta: it succeeds only if every eigenvalue
    lies below sigma, and theta, a Rayleigh quotient, lies below the top.  A block that
    misses the residual bound or the certificate leaves the form to the dense ``eigh``.
    ``numpy.linalg.LinAlgError`` propagates.
    """
    n = form.shape[0]
    if warm is None or n < KRYLOV_MIN_ROWS:
        return _dense_top(form)
    form_abs = np.abs(form)
    u = warm / np.linalg.norm(warm)
    floor = _ritz_floor(form_abs, u)
    for _ in range(-(-n // KRYLOV_DIM)):
        theta, u, residual = _krylov_ritz(form, u, floor)
        floor = _ritz_floor(form_abs, u)
        if residual <= floor:
            shifted = -form
            shifted.flat[:: n + 1] += theta + 2.0 * residual + floor  # sigma I - F
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                break
            return theta, u
    return _dense_top(form)


class _RatioProblem:
    """Quadratic-form machinery shared by all restarts for one spectrum.

    Everything happens in rho's eigenbasis, so only the ascending spectrum ``lam``
    is read: there rho is ``weight`` = diag(lam), and the weighted norm
    Tr(X^dag X rho) = sum_jk |X_jk|^2 lam_k is a diagonal form D in the
    coordinates.  With B fixed, the commutator is a linear map G of A's
    coordinates, taken scaled to D^(1/2) G D^(-1/2), so that a half step is
    the top eigenpair of the standard form G^dag G, which :func:`_top_pair`
    solves from A's previous iterate in the same scaled coordinates.  Both
    modes read G from the row-major vectorization K = I ox B^T - B ox I of
    A -> [A, B], and the same form serves both sides, since [A, B] = -[B, A].

    In complex mode the coordinates are A's entries, with weight lam_k on
    A_jk, and G = K.

    In Hermitian mode write A = S + iQ, with S real symmetric and Q real
    antisymmetric.  The coordinates are the real matrix M = Re A + Im A = S + Q,
    an isometry from Hermitian matrices onto all real d x d matrices, with
    inverse A = ((1+i)/2) M + ((1-i)/2) M^T and weight (lam_j + lam_k)/2 on
    M_jk.  G maps M to the coordinates of the Hermitian matrix i[A, B], so
    G = Re(iK + K T), with T the transposition of M's entries:

        G[(x, z), (w, y)] = d_xy Re B_wz - d_zw Re B_xy - d_xw Im B_yz + d_zy Im B_xw,

    real arithmetic throughout.

    Both modes assemble the scaled G by one ``bincount`` over a table fixed per
    state: four blocks of d^3 entries over (x, z, t) read the slots of Re B_tz,
    Re B_xt, Im B_tz and Im B_xt in B's real view into row (x, z), times sign *
    root[row] / root[col], with root^2 the diagonal of D.  The columns, signs and
    destinations, in G or in the real view of a complex G, depend on the mode.
    """

    def __init__(self, lam: np.ndarray, mode: str) -> None:
        self.mode = mode
        d = lam.size
        n = d * d
        self.dim = d
        self.weight = np.diag(lam)
        x, z, t = np.indices((d, d, d)).reshape(3, -1)
        row = np.tile(x * d + z, 4)
        part = np.repeat([0, 1], 2 * t.size)
        self.src = np.concatenate([2 * (t * d + z), 2 * (x * d + t)] * 2) + part
        if mode == "hermitian":
            # t is w in the first and last term of G and y in the other two
            col = np.concatenate([t * d + x, z * d + t, x * d + t, t * d + z])
            signs = [1.0, -1.0, -1.0, 1.0]
            root = np.sqrt((lam[:, None] + lam[None, :]) / 2.0).ravel()
            self.field, self.size, self.dst = float, n * n, row * n + col
        else:
            # t is y in I ox B^T and w in B ox I
            col = np.tile(np.concatenate([x * d + t, t * d + z]), 2)
            signs = [1.0, -1.0, 1.0, -1.0]
            root = np.sqrt(np.tile(lam, d))
            self.field, self.size, self.dst = complex, 2 * n * n, 2 * (row * n + col) + part
        self.coef = np.repeat(signs, t.size) * root[row] / root[col]
        self.root, self.inv_root = root, 1.0 / root

    def half_step(
        self, other: np.ndarray, warm: np.ndarray | None = None
    ) -> tuple[np.ndarray, float]:
        """Globally maximize the ratio over one argument, the other fixed.

        Both matrices are in the eigenbasis, and ``other`` has unit weighted
        norm.  ``warm``, the previous iterate of the side being solved, starts
        :func:`_top_pair`'s Krylov block.  Returns the new matrix, of unit
        weighted norm, and the ratio of the pair, which is the top eigenvalue.
        """
        d = self.dim
        n = d * d
        values = self.coef * other.view(float).ravel()[self.src]
        g = np.bincount(self.dst, values, minlength=self.size).view(self.field).reshape(n, n)
        # g.conj() is g itself when g is real
        form = g.conj().T @ g
        if warm is not None:
            # the coordinates of warm, M = Re A + Im A in Hermitian mode, scaled by D^(1/2)
            coords = warm.real + warm.imag if self.mode == "hermitian" else warm
            warm = coords.ravel() * self.root
        try:
            mu, v = _top_pair(form, warm)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"half-step eigenproblem failed: {exc}") from exc
        new = (v * self.inv_root).reshape(d, d)
        if self.mode == "hermitian":
            # A = S + iQ from M = S + Q, exactly Hermitian in floating point.
            new = new * (0.5 + 0.5j) + new.T * (0.5 - 0.5j)
        return new, mu

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        d = self.dim
        if self.mode == "hermitian":
            return sample_hermitian_batch(d, 1, rng)[0]
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _ascend(
    problem: _RatioProblem,
    a0: np.ndarray | None,
    b0: np.ndarray,
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float, list[float], int, bool]:
    """Half steps from one start, all in rho's eigenbasis: the last pair, its ratio, the
    trace, the sweeps run and whether the last sweep's relative gain was at most ``tol``."""
    b = b0 / math.sqrt(weighted_norm_sq(b0, problem.weight))
    a = None
    trace: list[float] = []
    if a0 is not None:
        a = a0 / math.sqrt(weighted_norm_sq(a0, problem.weight))
        trace.append(ratio(a, b, problem.weight))

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
        a, value = problem.half_step(b, a)
        record(value)
        b, current = problem.half_step(a, b)
        record(current)
        iterations = it + 1
        if previous is not None and current - previous <= tol * max(previous, 1e-300):
            converged = True
            break
        previous = current
    return a, b, trace[-1], trace, iterations, converged


def maximize_ratio(
    rho: DensityMatrix | np.ndarray,
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
    ``converged`` reflects whether that run's relative gain fell below ``tol``
    before ``max_iters``.  ``rho`` is a :class:`DensityMatrix` or a raw matrix
    that ``states.as_state`` validates once, and must have full rank.  The ascent reads
    only the spectrum: the witness and the random starts (GUE or Ginibre, both unitarily
    invariant) are written in rho's eigenbasis, and only the best pair is rotated back,
    once, then re-evaluated and checked against the proven ceiling.

    ``seed_witness=False`` drops the analytic start so the constant must be
    found from random starts alone, which costs more iterations but gives an
    independent check that the supremum is actually attained.
    """
    if mode not in ("hermitian", "complex"):
        raise ValueError(f"mode must be 'hermitian' or 'complex', got {mode!r}")
    rho = as_state(rho)
    lam = _spectrum_of(rho)
    if float(lam[0]) <= 0.0:
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

    problem = _RatioProblem(lam, mode)
    starts = [_witness_pair(lam)] if seed_witness else []
    starts += [(None, problem.random_start(rng)) for _ in range(restarts)]

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
    a, b = (_from_eigenbasis(rho.eigenvectors, m) for m in (a, b))
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
    """JSON-ready record of an optimization run (matrices as [re, im] pairs): every field,
    the arrays as lists, and the two properties."""
    record = {field.name: getattr(result, field.name) for field in fields(result)}
    record.update(
        spectrum=[float(x) for x in result.spectrum],
        witness_a=matrix_to_pairs(result.witness_a),
        witness_b=matrix_to_pairs(result.witness_b),
        trace=list(result.trace),
        relative_deviation=result.relative_deviation,
        exceeds_conjecture=result.exceeds_conjecture,
    )
    return record
