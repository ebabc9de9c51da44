"""Functional map estimation, pointwise conversion, and training losses.

Direction bookkeeping, fixed package-wide:

* C maps coefficients on shape 1 to coefficients on shape 2 and has shape
  (k2, k1): it acts as A2 ~ C A1.
* Pointwise maps go the other way: a hard map assigns every vertex of
  shape 2 a vertex of shape 1, an (n2,) int64 array of indices into
  [0, n1); a soft map is a row-stochastic (n2, n1) float64 array.
* The properness projection of a pointwise map is C = Phi2^T M2 (Pi Phi1).
"""

from __future__ import annotations

import numpy as np

from . import _blas
from ._blas import single_threaded
from .errors import LengthMismatch, RankDeficient
from .mesh import _vertex_indices
from .spectral import SpectralBasis, _matrix, _rows

# relative eigenvalue threshold below which an unregularized Gram matrix is
# declared singular
RANK_RTOL = 1e-10

DEFAULT_TAU = 0.07
DEFAULT_MU = 1e-3

# the LengthMismatch of a bad soft-map row, given (_check_rows) or computed (_exp_rows)
_BAD_ROWS = "soft map rows must be finite, non-negative and sum to 1"


def _check_rows(rows: np.ndarray) -> None:
    """Raise LengthMismatch unless every row is finite, non-negative and sums to 1.

    A NaN compares False to everything, so the sums catch non-finite rows.
    """
    sums = rows.sum(axis=1)
    if (
        not np.isfinite(sums).all()
        or np.min(rows, initial=0.0) < 0
        or np.any(np.abs(sums - 1.0) > 1e-9)
    ):
        raise LengthMismatch(_BAD_ROWS)


@single_threaded()
def solve_fmap(A1: np.ndarray, A2: np.ndarray,
               lam1: np.ndarray | None = None, lam2: np.ndarray | None = None,
               mu: float = DEFAULT_MU) -> np.ndarray:
    """Least-squares functional map with a commutativity regularizer.

    Minimizes ||C A1 - A2||_F^2 + mu sum_pq C[p,q]^2 (lam2[p] - lam1[q])^2.
    Each row p of C has the closed form
    (A1 A1^T + mu D_p)^-1 A1 A2[p]^T with D_p = diag((lam2[p]-lam1)^2),
    solved as one batched dense system.

    With mu = 0 the eigenvalues are not needed, but A1 must have full row
    rank: a Gram matrix singular beyond a 1e-10 relative eigenvalue
    threshold raises RankDeficient. mu must be finite and >= 0.
    """
    A1 = _matrix(A1)
    A2 = _matrix(A2, cols=A1.shape[1])
    if not 0 <= mu < np.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    k1 = A1.shape[0]
    gram = A1 @ A1.T
    rhs = A2 @ A1.T                                   # (k2, k1)
    if mu == 0:
        ev = np.linalg.eigvalsh(gram)
        if ev[-1] <= 0 or ev[0] < RANK_RTOL * ev[-1]:
            raise RankDeficient(
                "A1 A1^T is singular at the 1e-10 relative threshold; "
                "supply mu > 0 or a fuller descriptor stack"
            )
        return np.linalg.solve(gram, rhs.T).T
    if lam1 is None or lam2 is None:
        raise ValueError("mu > 0 needs both eigenvalue vectors")
    lam1 = _rows(np.ravel(lam1), k1, stack=False)
    lam2 = _rows(np.ravel(lam2), len(A2), stack=False)
    penalties = (lam2[:, None] - lam1[None, :]) ** 2  # (k2, k1)
    mats = np.broadcast_to(gram, (lam2.size, k1, k1)).copy()
    diag = np.arange(k1)
    mats[:, diag, diag] += mu * penalties
    try:
        return np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"regularized row system is singular: {exc}") from exc


@np.errstate(over="ignore", invalid="ignore")
def _sq_dist(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[...] = sum_k (x[..., k] - y[..., k])**2, x and y broadcast.

    The terms are added in coordinate order, starting from 0, as scipy's
    cdist adds them for "sqeuclidean", so the values agree with it bit for
    bit, and like it warn of no overflow or NaN.
    """
    out[...] = 0.0
    for xk, yk in zip(np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0)):
        diff = xk - yk
        diff *= diff
        out += diff
    return out


@np.errstate(over="ignore", invalid="ignore")
def _nearest(queries: np.ndarray, points: np.ndarray, skip_self: bool = False) -> np.ndarray:
    """np.argmin(cdist(queries, points, "sqeuclidean"), axis=1), bit for bit.

    With skip_self (queries is points), each row's own column is left out.
    See nearest_rows for the method and its bound. Warns as _sq_dist does.
    """
    d = queries.shape[1]
    idx = np.empty(len(queries), dtype=np.int64)
    if len(queries) and not len(points):
        raise ValueError("attempt to get argmin of an empty sequence")
    # est = [-2q, 1] @ [p, |p|^2]^T = |p|^2 - 2 q.p, the distance less |q|^2
    pp = np.einsum("ij,ij->i", points, points)
    q_aug = np.hstack([-2.0 * queries, np.ones((len(queries), 1))])
    p_aug = np.hstack([points, pp[:, None]])
    scale = np.einsum("ij,ij->i", queries, queries) + pp.max(initial=0.0)
    tol = np.where(scale < 2.0 ** 1000, 8 * (d + 2) * np.finfo(float).eps * scale, np.inf)
    tol += (d + 2) * 2.0 ** -1070   # products that underflow

    def block(a, b, est):
        rows = np.arange(b - a)
        np.matmul(q_aug[a:b], p_aug.T, out=est)
        if skip_self:
            est[rows, rows + a] = np.inf
        first = est.argmin(axis=1)
        best = est[rows, first]
        est[rows, first] = np.inf
        idx[a:b] = first
        redo = np.flatnonzero(~(est.min(axis=1) > best + tol[a:b]))
        if not redo.size:
            return
        est[redo, first[redo]] = best[redo]
        bound = best[redo] + tol[a + redo]
        r, c = np.nonzero(est[redo] <= bound[:, None])
        if np.isfinite(bound).all() and r.size * d <= est.size:
            # finite rows, at most a buffer's worth of candidates: only they
            # can hold an exact minimum
            exact = _sq_dist(queries[a + redo[r]], points[c], np.empty(r.size))
            est[redo] = np.inf
            est[redo[r], c] = exact
            idx[a + redo] = est[redo].argmin(axis=1)
            return
        exact = _sq_dist(queries[a + redo, None, :], points, est[:redo.size])
        if skip_self:
            exact[np.arange(redo.size), a + redo] = np.inf
        got = exact.argmin(axis=1)
        if skip_self:   # row 0 with every other distance inf: its first other row
            got[got == a + redo] = 1
        idx[a + redo] = got

    _blas.row_blocks(block, len(queries), len(points))
    return idx


@single_threaded()
def nearest_rows(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the nearest row of `points` for every row of `queries`.

    Exactly np.argmin(cdist(queries, points, "sqeuclidean"), axis=1): the
    squared distances as cdist adds them (`_sq_dist`), ties to the lowest
    index, and a row with a NaN distance takes the first NaN.

    Each `_blas.row_blocks` block estimates est = |p|^2 - 2 q.p, the
    distance less |q|^2, with one single-threaded GEMM in its worker's
    (ROW_BLOCK, len(points)) buffer, and takes each row's argmin. The
    rounding bound of Higham, *Accuracy and Stability of Numerical
    Algorithms* (2nd ed., 2002), Sec. 3.1, |fl(x.y) - x.y| <= gamma_m
    sum |x_i y_i| with gamma_m = m u / (1 - m u), holds in any summation
    order, FMA included. With S = |q|^2 + max |p|^2 it puts each estimate
    within 3 gamma_{d+1} S of |p|^2 - 2 q.p and each cdist sum within
    2 gamma_{d+2} S of the true squared distance, so the estimate of
    cdist's nearest row lies within 2 (3 gamma_{d+1} + 2 gamma_{d+2}) S
    <= 10 gamma_{d+2} S ~ 5 (d + 2) eps S of the row's minimum. A row is
    rechecked in cdist's order if its runner-up estimate lies within
    8 (d + 2) eps S (plus (d + 2) 2**-1070 for products that underflow)
    of its minimum, if that minimum is not finite, or if S is not below
    2**1000 (a non-finite entry, or estimates that could overflow): only
    its columns within that bound, which hold every exact minimum, or the
    whole row where the bound is not finite or a block's candidates
    would outgrow its buffer. Every other row's argmin is cdist's, so the
    answer does not depend on how the BLAS kernel rounds (a classical
    GEMM is assumed, no Strassen-like product).
    """
    queries = _matrix(queries)
    return _nearest(queries, _matrix(points, cols=queries.shape[1]))


@single_threaded()
def convert_adjoint(C: np.ndarray, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """Hard map, (n2,) int64, from C by the adjoint rule.

    Each row of Phi2 C (the shape-2 vertices pushed into shape 1's
    coefficient space) is matched to its nearest row of Phi1.
    """
    phi1, phi2 = _matrix(phi1), _matrix(phi2)
    return nearest_rows(phi2 @ _matrix(C, phi2.shape[1], phi1.shape[1]), phi1)


def convert_feature_nn(F1, F2) -> np.ndarray:
    """Hard map, (n2,) int64, by nearest neighbors between descriptor rows."""
    return nearest_rows(F2, F1)


def _soft_inputs(G1, G2, tau: float) -> tuple[np.ndarray, np.ndarray]:
    if not 0 < tau < np.inf:
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    v1 = _matrix(G1)
    return v1, _matrix(G2, cols=v1.shape[1])


def _exp_rows(s: np.ndarray) -> np.ndarray:
    """exp(s - s.max(1)) in place in s; returns its (rows, 1) row sums, checked.

    Each row's largest entry becomes exp(0) = 1, so a finite row sums to
    at least 1. A non-finite similarity (a NaN or an infinite descriptor
    entry) makes NaN reach its row sum, through NaN itself or inf - inf:
    the sums must be finite and > 0, else the LengthMismatch of
    `_check_rows`.
    """
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    sums = s.sum(axis=1, keepdims=True)
    if not (np.isfinite(sums) & (sums > 0)).all():
        raise LengthMismatch(_BAD_ROWS)
    return sums


@single_threaded()
def soft_map(G1, G2, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Row-stochastic (n2, n1) float64 soft map from inner-product similarities.

    Pi[i, j] = exp(<G2[i], G1[j]> / tau) / sum_k exp(<G2[i], G1[k]> / tau),
    computed with a per-row max shift so large similarities cannot overflow.

    The call allocates the one n2 x n1 float64 array it returns (52 MB
    at n = 2562) and fills it per `_blas.row_blocks` block, on the
    caller's BLAS threads: the block's similarity product, divided by
    tau, shifted, exponentiated and divided by its row sums (`_exp_rows`,
    which checks the sums first). On an AVX-512 OpenBLAS the result is
    bit-identical to exp(s - s.max(1)) / sum with s = (G2 @ G1.T) / tau;
    on any build it does not depend on the thread count. A non-finite
    similarity (a NaN or an infinite descriptor entry) gives a NaN row
    sum, which the check rejects with LengthMismatch.
    """
    v1, v2 = _soft_inputs(G1, G2, tau)
    p = np.empty((len(v2), len(v1)))

    def block(a, b, _):
        s = np.matmul(v2[a:b], v1.T, out=p[a:b])
        s /= tau
        s /= _exp_rows(s)

    _blas.row_blocks(block, len(v2))
    return p


@single_threaded()
def _soft_apply(G1, G2, values, tau: float = DEFAULT_TAU) -> np.ndarray:
    """The pull-back Pi @ values, (n1, m), through Pi = soft_map(G1, G2, tau), without Pi.

    Each `_blas.row_blocks` block writes exp(s - s.max(1)) of its
    similarities s = rows2 @ (G1 / tau).T in its worker's (ROW_BLOCK, n1)
    buffer, checks the row sums as soft_map does (`_exp_rows`), pulls the
    unnormalised block back and divides the (rows, values) result by the
    sums. So the call holds O(workers * ROW_BLOCK * n1) bytes instead of
    n2 * n1, and makes 4 elementwise passes over a block where soft_map
    makes 6. It rejects NaN and infinite descriptors as soft_map does,
    but folding 1 / tau into G1 and dividing after the product round
    differently: the result agrees with
    _pull_back(soft_map(G1, G2, tau), values) to a few units in the last
    place, not bit for bit. The row split does not depend on the thread
    count, so neither does the result.
    """
    v1, v2 = _soft_inputs(G1, G2, tau)
    values = _matrix(values, len(v1))
    v1 = v1 / tau
    out = np.empty((len(v2), values.shape[1]))

    def block(a, b, buf):
        s = np.matmul(v2[a:b], v1.T, out=buf)
        sums = _exp_rows(s)
        np.matmul(s, values, out=out[a:b])
        out[a:b] /= sums

    _blas.row_blocks(block, len(v2), len(v1))
    return out


@single_threaded()
def _pull_back(pi, values) -> np.ndarray:
    """Pi @ values: shape-1 vertex values pulled back onto shape 2.

    The array says which map pi is: 1-D is a hard map, integers checked
    by `mesh._vertex_indices` against n1 = len(values) (numpy would wrap
    a negative one); 2-D is a soft map (n2, n1), rows finite, non-negative
    and summing to 1 within 1e-9. Anything else, a soft map of another
    width or a bad soft row raises LengthMismatch. A soft map's rows are
    checked and multiplied in one `_blas.row_blocks` pass.
    """
    values = np.asarray(values, dtype=np.float64)
    n1 = len(values)
    pi = np.asarray(pi)
    if pi.ndim == 1:
        return values[_vertex_indices(pi, n1, "point map")]
    pi = _matrix(pi, cols=n1)
    out = np.empty((len(pi),) + values.shape[1:])

    def block(a, b, _):
        _check_rows(pi[a:b])
        np.matmul(pi[a:b], values, out=out[a:b])

    _blas.row_blocks(block, len(pi))
    return out


@single_threaded()
def properness_project(pi, basis1: SpectralBasis, basis2: SpectralBasis) -> np.ndarray:
    """Proper functional map of a hard or soft map: C = Phi2^T M2 (Pi Phi1)."""
    return basis2.project(_pull_back(pi, basis1.phi))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def loss_properness(C_pred: np.ndarray, C_proper: np.ndarray) -> float:
    """Squared Frobenius distance between a map and its proper projection."""
    C_pred = _matrix(C_pred)
    C_proper = _matrix(C_proper, *C_pred.shape)
    return float(np.sum((C_pred - C_proper) ** 2))


def _unsupervised_terms(C12, C21):
    """The pair as float64 and its residuals C12 C21 - I, C21 C12 - I,
    C12^T C12 - I and C21^T C21 - I.

    C12 is any (k2, k1) array and C21 must be (k1, k2), else LengthMismatch.
    """
    C12 = _matrix(C12)
    k2, k1 = C12.shape
    C21 = _matrix(C21, k1, k2)
    i1, i2 = np.eye(k1), np.eye(k2)
    return C12, C21, (C12 @ C21 - i2, C21 @ C12 - i1, C12.T @ C12 - i1, C21.T @ C21 - i2)


@single_threaded()
def loss_unsupervised(C12: np.ndarray, C21: np.ndarray) -> float:
    """Bijectivity + orthogonality energy on a map pair.

    ||C12 C21 - I||^2 + ||C21 C12 - I||^2 + ||C12^T C12 - I||^2
    + ||C21^T C21 - I||^2 (all squared Frobenius).
    """
    _, _, residuals = _unsupervised_terms(C12, C21)
    return float(sum(np.sum(r ** 2) for r in residuals))


@single_threaded()
def grad_unsupervised(C12: np.ndarray, C21: np.ndarray):
    """Analytic gradient of loss_unsupervised w.r.t. both maps."""
    C12, C21, (r_12_21, r_21_12, o_12, o_21) = _unsupervised_terms(C12, C21)
    g12 = 2.0 * r_12_21 @ C21.T + 2.0 * C21.T @ r_21_12 + 4.0 * C12 @ o_12
    g21 = 2.0 * C12.T @ r_12_21 + 2.0 * r_21_12 @ C12.T + 4.0 * C21 @ o_21
    return g12, g21
