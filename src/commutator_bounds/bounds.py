"""Variances, skew information, and the five variance-product lower bounds.

Every quantity comes from one kernel that evaluates stacked triples in the
eigenbasis of each state, where every nonnegative quantity is a sum of
squared entry magnitudes with nonnegative weights, so round-off cannot
manufacture sign violations.  :func:`batch_bounds` runs it over large
corpora; the scalar functions validate one (A, B, rho) triple and read a
single row of it; the MUB path feeds its reductions the tables of its pairs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalConsistencyError
from .linalg import (
    as_matrix,
    checked_dim,
    checked_real,
    checked_unit,
    nonnegative,
    require_hermitian,
    require_same_dim,
)
from .states import as_state, checked_bloch

logger = logging.getLogger(__name__)

#: The five lower bounds: the four proven ones, then the conjectured ``bound2``.
HARD_BOUND_NAMES = ("robertson", "schrodinger", "luo_park", "bound1")
BOUND_NAMES = (*HARD_BOUND_NAMES, "bound2")

#: Slack, relative to the product, before the conjectured inequality counts as violated.
CONJECTURE_SLACK = 1e-9

#: Slack, relative to the bound, before a proven inequality counts as violated.
HARD_SLACK = 1e-10


def expectation(x, rho) -> float:
    """<X> = Tr(X rho), required by :func:`linalg.checked_real` to be finite and real
    at the trace's scale |X|_F |rho|_F.

    A raw-array ``rho`` with a finite trace is validated as a :class:`DensityMatrix`
    first, so a non-Hermitian state raises :class:`InvalidStateError` and a non-finite
    input :class:`NumericalConsistencyError`.
    """
    xm = as_matrix(x, "X")
    rm = as_matrix(rho, "rho")
    require_same_dim(xm, rm)
    trace = np.einsum("ij,ji->", xm, rm)
    if np.isfinite(trace):
        as_state(rho)
    scale = np.linalg.norm(xm) * np.linalg.norm(rm)
    return float(checked_real(trace, scale, "expectation"))


def _single(a, b, rho) -> dict[str, float]:
    """Every kernel column for one triple, after the scalar path's input checks.

    A and B must pass ``require_hermitian``, and ``rho`` goes through :func:`states.as_state`,
    whose spectrum and eigenvectors are the eigenbasis.
    """
    am = require_hermitian(a, "A")
    bm = require_hermitian(b, "B")
    state = as_state(rho)
    require_same_dim(am, bm)
    require_same_dim(am, state.matrix)
    vecs = state.eigenvectors
    vh = vecs.conj().T
    cols = _eigenbasis_columns((vh @ am @ vecs)[None], (vh @ bm @ vecs)[None], state.spectrum[None])
    return {name: float(col[0]) for name, col in cols.items()}


def variance(x, rho) -> float:
    """V(X) = Tr(X^2 rho) - <X>^2."""
    return _single(x, x, rho)["var_a"]


def skew_information(x, rho) -> float:
    """V(X) - C(X) = Tr(X^2 rho) - Tr(sqrt(rho) X sqrt(rho) X): the quantum part of V(X)."""
    cols = _single(x, x, rho)
    return float(nonnegative(cols["var_a"] - cols["cu_a"], "skew information", scale=cols["var_a"]))


def classical_uncertainty(x, rho) -> float:
    """C(X) = V(X) - skew(X) = Tr(sqrt(rho) X' sqrt(rho) X') for centered X'."""
    return _single(x, x, rho)["cu_a"]


def bound_robertson(a, b, rho) -> float:
    """|Tr([A,B] rho)|^2 / 4."""
    return _single(a, b, rho)["robertson"]


def bound_schrodinger(a, b, rho) -> float:
    """Robertson bound plus the squared symmetrized covariance."""
    return _single(a, b, rho)["schrodinger"]


def bound_luo_park(a, b, rho) -> float:
    """Robertson bound plus the product of classical uncertainties C(A) C(B)."""
    return _single(a, b, rho)["luo_park"]


def bound_one(a, b, rho) -> float:
    """Proven commutator-norm bound: lam_min^2 / (2 lam_max) * |[A,B]|_rho^2."""
    return _single(a, b, rho)["bound1"]


def bound_two(a, b, rho) -> float:
    """Conjectured commutator-norm bound with prefactor lam1 lam2 / (lam1 + lam2).

    For qubits the prefactor reduces to lam1 lam2.  States with two vanishing
    eigenvalues make the prefactor 0/0; the bound is then 0.
    """
    return _single(a, b, rho)["bound2"]


@dataclass(frozen=True)
class BoundReport:
    """All five lower bounds next to the variance product for one (A, B, rho) triple.

    ``conjecture_ok`` is False when the conjectured bound exceeds the product by
    more than ``CONJECTURE_SLACK`` times the product, the verdict of
    :func:`violation_masks`; such a report is logged as a warning when built.
    """

    dim: int
    purity: float
    product: float
    robertson: float
    schrodinger: float
    luo_park: float
    bound1: float
    bound2: float
    conjecture_ok: bool


def _report(dim: int, row: dict[str, float]) -> BoundReport:
    """The :class:`BoundReport` of one row of float columns, logging a violated conjecture."""
    report = BoundReport(
        dim=dim,
        purity=row["purity"],
        product=row["product"],
        **{name: row[name] for name in BOUND_NAMES},
        conjecture_ok=not violation_masks(row)["bound2"],
    )
    if not report.conjecture_ok:
        logger.warning(
            "conjectured inequality violated: bound2=%r product=%r", report.bound2, report.product
        )
    return report


def bound_report(a, b, rho) -> BoundReport:
    """Evaluate every bound for one triple."""
    return _report(as_matrix(a, "A").shape[0], _single(a, b, rho))


def _abs2(x: np.ndarray) -> np.ndarray:
    """|x|^2 entrywise, written into one real array."""
    out = np.square(x.real)
    out += np.square(x.imag)
    return out


def _diagonal_mean(xt: np.ndarray, lam: np.ndarray, name: str) -> np.ndarray:
    """<X> = sum_j lam_j X~_jj per triple, required by :func:`linalg.checked_real` to be
    finite and real at the scale |X~|_F |lam|_2, the same bound as :func:`expectation`'s.
    """
    mean = np.einsum("nj,nj->n", lam, np.einsum("njj->nj", xt))
    scale = np.sqrt(_abs2(xt).sum(axis=(1, 2)) * np.einsum("nj,nj->n", lam, lam))
    return checked_real(mean, scale, f"expectation of {name}")


def _weighted_sum(weights: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """|X|_rho^2 = sum_jk lam_k w_jk from the table w_jk = |X~_jk|^2, per triple."""
    return np.einsum("...jk,...k->...", weights, lam)


def _root_weighted_sum(w: np.ndarray, root: np.ndarray) -> np.ndarray:
    """C(X) = sum_jk root_j root_k w_jk from the table w_jk = |X~'_jk|^2 of a centered X'."""
    return np.einsum("...j,...jk,...k->...", root, w, root)


def _eigenbasis_columns(at: np.ndarray, bt: np.ndarray, lam: np.ndarray) -> dict[str, np.ndarray]:
    """The :func:`batch_bounds` columns plus the variances ``var_a``, ``var_b``
    and classical uncertainties ``cu_a``, ``cu_b`` of stacked triples.

    Each triple comes in the eigenbasis of its state rho = V diag(lam) V^dag:
    ``lam`` holds the (n, d) ascending spectra clipped at 0, and ``at``, ``bt``
    the rotated A~ = V^dag A V and B~ = V^dag B V, which are centered in place.
    Centering shifts the diagonal of A~ by <A> = sum_j lam_j A~_jj, and every
    column is a weighted sum over entries of the centered A~', B~':

    * V(A) = sum_jk lam_j |A~'_jk|^2;
    * Tr(A' B' rho) = sum_jk lam_j A~'_jk B~'_kj, whose imaginary and real
      parts give the Robertson and Schrodinger bounds;
    * C(A) = sum_jk sqrt(lam_j lam_k) |A~'_jk|^2;
    * |[A,B]|_rho^2 = sum_jk lam_k |C_jk|^2 with C = A~B~ - (A~B~)^dag,
      taken before centering since the commutator ignores identity shifts.

    :func:`_weighted_sum` and :func:`_root_weighted_sum` sum the tables, for the MUB path too.

    With lam >= 0, the variances and classical uncertainties are sums of
    nonnegative terms, robertson <= schrodinger and robertson <= luo_park add
    a nonnegative term to robertson, and bound1 <= bound2 is the ordering of
    the prefactors lam_min^2 / (2 lam_max) <= lam_min lam_2 / (lam_min + lam_2),
    so none of these is checked.  Two cases raise
    :class:`NumericalConsistencyError`: a non-finite <A> or <B>, or one whose
    imaginary part is not round-off by ``linalg.checked_real`` (a non-Hermitian
    input), and any column that is not finite; a state of dimension below 2,
    which has no lam_2, raises :class:`DimensionMismatchError` by ``linalg.checked_dim``.
    """
    checked_dim(lam.shape[1])
    comm = at @ bt
    comm -= comm.conj().swapaxes(1, 2)
    comm_norm = _weighted_sum(_abs2(comm), lam)

    diag = np.arange(lam.shape[1])
    mean_a = _diagonal_mean(at, lam, "A")
    mean_b = _diagonal_mean(bt, lam, "B")
    at[:, diag, diag] -= mean_a[:, None]
    bt[:, diag, diag] -= mean_b[:, None]

    cross = np.einsum("nj,njk,nkj->n", lam, at, bt)
    robertson = cross.imag**2
    schrodinger = robertson + cross.real**2

    # V reads each symmetric table transposed, keeping the pinned order sum_jk lam_j w_jk
    root = np.sqrt(lam)
    w = _abs2(at)
    var_a, cu_a = _weighted_sum(w.swapaxes(-1, -2), lam), _root_weighted_sum(w, root)
    del w  # one (n, d, d) table at a time, which keeps the peak memory of batch_bounds
    w = _abs2(bt)
    var_b, cu_b = _weighted_sum(w.swapaxes(-1, -2), lam), _root_weighted_sum(w, root)

    lam_m = lam[:, 0]
    lam_sm = lam[:, 1]
    lam_big = lam[:, -1]
    denom = lam_m + lam_sm
    prefactor = np.where(denom > 0.0, lam_m * lam_sm / np.where(denom > 0.0, denom, 1.0), 0.0)

    cols = {
        "product": var_a * var_b,
        "robertson": robertson,
        "schrodinger": schrodinger,
        "luo_park": robertson + cu_a * cu_b,
        "bound1": lam_m**2 / (2.0 * lam_big) * comm_norm,
        "bound2": prefactor * comm_norm,
        "purity": (lam**2).sum(axis=1),
        "var_a": var_a,
        "var_b": var_b,
        "cu_a": cu_a,
        "cu_b": cu_b,
    }
    for name, col in cols.items():
        if not np.isfinite(col).all():
            raise NumericalConsistencyError(f"batch column {name} has non-finite values")
    return cols


_BATCH_COLUMNS = ("product", *BOUND_NAMES, "purity")


def batch_bounds(a: np.ndarray, b: np.ndarray, rho: np.ndarray) -> dict[str, np.ndarray]:
    """Vectorized bound evaluation over stacked triples.

    ``a`` and ``b`` are (n, d, d) Hermitian arrays and ``rho`` an (n, d, d)
    array of valid states; validation is the caller's job on this hot path,
    except that a state eigenvalue below the round-off floor raises
    :class:`InvalidStateError`.
    Returns per-sample arrays for the product, the five bounds, and purity.
    The inputs are never written to, and read-only or broadcast arrays are
    accepted.

    Each state is decomposed here, and the rotated triples go to the kernel
    :func:`_eigenbasis_columns`, shared with the scalar functions and
    documented there.  Its variance and classical-uncertainty columns are
    dropped, so a caller keeps (and a worker pickles back) only these seven.
    """
    lam, vecs = np.linalg.eigh(rho)
    lam = nonnegative(lam, "state eigenvalue", InvalidStateError)
    # Peak memory is set here, at four (n, d, d) arrays besides the inputs:
    # the eigenvectors are conjugated in place and dropped once A, B rotated.
    at = a @ vecs
    bt = b @ vecs
    vh = np.conj(vecs, out=vecs).swapaxes(1, 2)
    at = vh @ at
    bt = vh @ bt
    del vecs, vh
    cols = _eigenbasis_columns(at, bt, lam)
    return {name: cols[name] for name in _BATCH_COLUMNS}


def violation_masks(cols: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Boolean per-sample masks marking bound values that exceed the product.

    Each verdict is relative, with no absolute floor, so it reads the same at
    every scale of A and B: a proven bound is flagged when it exceeds the
    product by more than ``HARD_SLACK`` times the bound, the conjectured
    ``bound2`` when it exceeds it by more than ``CONJECTURE_SLACK`` times the
    product.
    """
    product = cols["product"]
    masks = {name: cols[name] - product > HARD_SLACK * cols[name] for name in HARD_BOUND_NAMES}
    masks["bound2"] = cols["bound2"] - product > CONJECTURE_SLACK * product
    return masks


def qubit_closed_form_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> dict[str, np.ndarray]:
    """Closed-form qubit bounds for unit traceless axes ``a``, ``b`` (rows) and one state.

    ``a``, ``b`` have shape (n, 3); ``c`` is the state's Bloch vector.  The
    Luo-Park factor coefficient vanishes as |c| -> 0, so the otherwise
    ill-defined (a.c)^2/|c|^2 term is taken as 0 below 1e-14.
    """
    c = np.asarray(c, dtype=float)
    r2 = float(c @ c)
    r = np.sqrt(r2)
    s = np.sqrt(max(1.0 - r2, 0.0))
    purity = 0.5 * (1.0 + r2)

    ac = a @ c
    bc = b @ c
    ab = np.einsum("ni,ni->n", a, b)
    cross = np.cross(a, b)
    cross_c = cross @ c
    cross_sq = np.einsum("ni,ni->n", cross, cross)

    robertson = cross_c**2
    schrodinger = robertson + (ab - ac * bc) ** 2

    if r > 1e-14:
        fa = s + (1.0 - r2 - s) * ac**2 / r2
        fb = s + (1.0 - r2 - s) * bc**2 / r2
    else:
        fa = np.full(a.shape[0], s)
        fb = np.full(b.shape[0], s)
    luo_park = robertson + fa * fb

    root = r  # sqrt(2 P - 1)
    bound1 = 2.0 * (purity - root) / (1.0 + root) * cross_sq
    bound2 = 2.0 * (1.0 - purity) * cross_sq
    product = (1.0 - ac**2) * (1.0 - bc**2)

    return {
        "product": product,
        "robertson": robertson,
        "schrodinger": schrodinger,
        "luo_park": luo_park,
        "bound1": bound1,
        "bound2": bound2,
        "purity": np.full(a.shape[0], purity),
    }


def qubit_bounds_closed_form(a, b, c) -> BoundReport:
    """Closed-form qubit bound report for unit traceless axes and a Bloch vector.

    Agrees with the generic matrix path within 1e-10 for every state in the
    Bloch ball.
    """
    av = checked_unit(a, "a", 3)
    bv = checked_unit(b, "b", 3)
    cols = qubit_closed_form_batch(av[None, :], bv[None, :], checked_bloch(c))
    return _report(2, {name: float(col[0]) for name, col in cols.items()})


def qubit_commutator_norm_identity(a, b) -> float:
    """State-weighted squared commutator norm of two traceless qubit observables.

    Equals 4 |a x b|^2 independently of the state, and half the unweighted
    squared Frobenius norm.  This is special to qubits and does not extend
    to higher dimensions.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != (3,) or bv.shape != (3,):
        raise ValueError(f"axes must have 3 components, got shapes {av.shape} and {bv.shape}")
    cross = np.cross(av, bv)
    return 4.0 * float(cross @ cross)
