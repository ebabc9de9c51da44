"""Functional map estimation, pointwise conversion, and training losses.

Direction bookkeeping, fixed package-wide:

* C maps coefficients on shape 1 to coefficients on shape 2 and has shape
  (k2, k1): it acts as A2 ~ C A1.
* Pointwise maps go the other way: a hard map assigns every vertex of
  shape 2 a vertex of shape 1 (indices of length n2 into [0, n1)); a soft
  map is a row-stochastic (n2, n1) matrix.
* The properness projection of a pointwise map is C = Phi2^T M2 (Pi Phi1).
"""

from __future__ import annotations

import queue
from dataclasses import dataclass, field

import numpy as np

from . import _blas
from ._blas import single_threaded
from .errors import LengthMismatch, RankDeficient

# relative eigenvalue threshold below which an unregularized Gram matrix is
# declared singular
RANK_RTOL = 1e-10

DEFAULT_TAU = 0.07
DEFAULT_MU = 1e-3


@dataclass
class PointMap:
    """Vertex assignment from shape 2 onto shape 1.

    kind 'hard': indices is (n2,) int64 into [0, n_source).
    kind 'soft': matrix is (n2, n_source), rows non-negative, summing to 1.
    """

    kind: str
    n_source: int
    indices: np.ndarray | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "hard":
            if self.indices is None:
                raise LengthMismatch("hard map needs indices")
            self.indices = np.asarray(self.indices, dtype=np.int64).ravel()
            if self.indices.size and (
                self.indices.min() < 0 or self.indices.max() >= self.n_source
            ):
                raise LengthMismatch(
                    f"hard map indices outside [0, {self.n_source})"
                )
        elif self.kind == "soft":
            if self.matrix is None:
                raise LengthMismatch("soft map needs a matrix")
            self.matrix = np.asarray(self.matrix, dtype=np.float64)
            if self.matrix.ndim != 2 or self.matrix.shape[1] != self.n_source:
                raise LengthMismatch(
                    f"soft map matrix must be (n2, {self.n_source}), got {self.matrix.shape}"
                )
            m = self.matrix
            _blas.row_blocks(lambda a, b: _check_rows(m[a:b]), len(m))
        else:
            raise LengthMismatch(f"unknown point map kind {self.kind!r}")

    @property
    def n_target(self) -> int:
        return len(self.indices) if self.kind == "hard" else self.matrix.shape[0]

    @single_threaded()
    def apply(self, values: np.ndarray) -> np.ndarray:
        """Pull shape-1 vertex values back onto shape 2 (Pi @ values)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape[0] != self.n_source:
            raise LengthMismatch(
                f"{values.shape[0]} rows for a map with n_source {self.n_source}"
            )
        if self.kind == "hard":
            return values[self.indices]
        m = self.matrix
        out = np.empty(m.shape[:1] + values.shape[1:])
        _blas.row_blocks(lambda a, b: np.matmul(m[a:b], values, out=out[a:b]), len(m))
        return out


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
        raise LengthMismatch(
            "soft map rows must be finite, non-negative and sum to 1"
        )


def _buffered_blocks(fn, n: int, cols: int) -> None:
    """`_blas.row_blocks` over n rows, calling fn(a, b, buf) with a (b - a, cols) buffer.

    Each worker reuses one buffer. They are allocated here, on the caller's
    thread: buffers allocated by the workers stay in glibc's per-thread
    arenas and raise the peak RSS. Call it inside `single_threaded`.
    """
    buffers = queue.SimpleQueue()
    for _ in range(_blas.workers(n)):
        buffers.put(np.empty((min(_blas.ROW_BLOCK, n), cols)))

    def block(a, b):
        buf = buffers.get()
        fn(a, b, buf[:b - a])
        buffers.put(buf)

    _blas.row_blocks(block, n)


def _feature_values(f) -> np.ndarray:
    values = np.asarray(f, dtype=np.float64)
    if values.ndim != 2:
        raise LengthMismatch(f"expected (n, d) array, got shape {values.shape}")
    return values


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
    threshold raises RankDeficient.
    """
    A1 = np.asarray(A1, dtype=np.float64)
    A2 = np.asarray(A2, dtype=np.float64)
    if A1.ndim != 2 or A2.ndim != 2 or A1.shape[1] != A2.shape[1]:
        raise LengthMismatch(
            f"coefficient shapes {A1.shape} and {A2.shape} do not share d"
        )
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
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
    lam1 = np.asarray(lam1, dtype=np.float64).ravel()
    lam2 = np.asarray(lam2, dtype=np.float64).ravel()
    if lam1.size != k1 or lam2.size != A2.shape[0]:
        raise LengthMismatch("eigenvalue lengths do not match coefficient rows")
    penalties = (lam2[:, None] - lam1[None, :]) ** 2  # (k2, k1)
    mats = np.broadcast_to(gram, (lam2.size, k1, k1)).copy()
    diag = np.arange(k1)
    mats[:, diag, diag] += mu * penalties
    try:
        return np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"regularized row system is singular: {exc}") from exc


@single_threaded()
def nearest_rows(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the nearest row of `points` for every row of `queries`.

    Squared Euclidean metric, computed coordinate-difference-wise (so values
    agree bit for bit with a naive double loop); ties resolve to the lowest
    index. Runs on the row blocks of `_blas.row_blocks`, so it holds one
    (ROW_BLOCK, len(points)) distance block per worker (`_buffered_blocks`).
    """
    from scipy.spatial.distance import cdist   # here, so `eval` never loads scipy.spatial
    queries = np.asarray(queries, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if queries.shape[1] != points.shape[1]:
        raise LengthMismatch(
            f"dimension mismatch: {queries.shape[1]} vs {points.shape[1]}"
        )
    idx = np.empty(len(queries), dtype=np.int64)

    def block(a, b, buf):
        d = cdist(queries[a:b], points, metric="sqeuclidean", out=buf)
        idx[a:b] = np.argmin(d, axis=1)

    _buffered_blocks(block, len(queries), len(points))
    return idx


@single_threaded()
def convert_adjoint(C: np.ndarray, phi1: np.ndarray, phi2: np.ndarray) -> PointMap:
    """Pointwise map from C by the adjoint rule.

    Each row of Phi2 C (the shape-2 vertices pushed into shape 1's
    coefficient space) is matched to its nearest row of Phi1.
    """
    C = np.asarray(C, dtype=np.float64)
    phi1 = np.asarray(phi1, dtype=np.float64)
    phi2 = np.asarray(phi2, dtype=np.float64)
    if phi2.shape[1] != C.shape[0] or phi1.shape[1] != C.shape[1]:
        raise LengthMismatch(
            f"C {C.shape} incompatible with phi1 {phi1.shape} / phi2 {phi2.shape}"
        )
    idx = nearest_rows(phi2 @ C, phi1)
    return PointMap("hard", n_source=phi1.shape[0], indices=idx)


def convert_feature_nn(F1, F2) -> PointMap:
    """Pointwise map by nearest neighbors between descriptor rows."""
    v1, v2 = _feature_values(F1), _feature_values(F2)
    idx = nearest_rows(v2, v1)
    return PointMap("hard", n_source=v1.shape[0], indices=idx)


def _soft_inputs(G1, G2, tau: float) -> tuple[np.ndarray, np.ndarray]:
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    v1, v2 = _feature_values(G1), _feature_values(G2)
    if v1.shape[1] != v2.shape[1]:
        raise LengthMismatch(f"dimension mismatch: {v1.shape[1]} vs {v2.shape[1]}")
    return v1, v2


def _soft_rows(v1: np.ndarray, rows2: np.ndarray, tau: float, out: np.ndarray) -> np.ndarray:
    """The soft-map rows of rows2 against v1, written into out (len(rows2), n1).

    The block's similarity product, then the max shift, `exp` and row
    normalisation in place: the steps of exp(s - s.max(1)) / sum with
    s = (rows2 @ v1.T) / tau.
    """
    s = np.matmul(rows2, v1.T, out=out)
    s /= tau
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return s


@single_threaded()
def soft_map(G1, G2, tau: float = DEFAULT_TAU) -> PointMap:
    """Row-stochastic soft assignment from inner-product similarities.

    Pi[i, j] = exp(<G2[i], G1[j]> / tau) / sum_k exp(<G2[i], G1[k]> / tau),
    computed with a per-row max shift so large similarities cannot overflow.

    The call allocates a single n2 x n1 float64 matrix (52 MB at
    n = 2562) and fills it per `_blas.row_blocks` block, on the caller's
    BLAS threads (`_soft_rows`). On an AVX-512 OpenBLAS the result is
    bit-identical to exp(s - s.max(1)) / sum with s = (G2 @ G1.T) / tau;
    on any build it does not depend on the thread count. A non-finite
    similarity (a NaN or an infinite descriptor entry) gives a non-finite
    row, which PointMap rejects with LengthMismatch.
    """
    v1, v2 = _soft_inputs(G1, G2, tau)
    p = np.empty((len(v2), len(v1)))
    _blas.row_blocks(lambda a, b: _soft_rows(v1, v2[a:b], tau, p[a:b]), len(v2))
    return PointMap("soft", n_source=v1.shape[0], matrix=p)


@single_threaded()
def _soft_apply(G1, G2, values, tau: float = DEFAULT_TAU) -> np.ndarray:
    """soft_map(G1, G2, tau).apply(values), bit for bit, without the soft map.

    Each `_blas.row_blocks` block builds its soft-map rows in its worker's
    (ROW_BLOCK, n1) buffer, checks them as PointMap does (LengthMismatch
    unless finite, non-negative and summing to 1) and pulls them back at
    once, so the call holds O(workers * ROW_BLOCK * n1) bytes instead of
    n2 * n1. The blocks split both products exactly as soft_map and
    PointMap.apply do.
    """
    v1, v2 = _soft_inputs(G1, G2, tau)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != len(v1):
        raise LengthMismatch(f"{values.shape[0]} rows for a map with n_source {len(v1)}")
    out = np.empty((len(v2),) + values.shape[1:])

    def block(a, b, buf):
        rows = _soft_rows(v1, v2[a:b], tau, buf)
        _check_rows(rows)
        np.matmul(rows, values, out=out[a:b])

    _buffered_blocks(block, len(v2), len(v1))
    return out


def _project(pulled: np.ndarray, phi2, mass2) -> np.ndarray:
    """C = Phi2^T M2 pulled, for pulled = Pi Phi1."""
    phi2 = np.asarray(phi2, dtype=np.float64)
    mass2 = np.asarray(mass2, dtype=np.float64).ravel()
    if pulled.shape[0] != phi2.shape[0] or mass2.size != phi2.shape[0]:
        raise LengthMismatch("point map target size does not match phi2/mass2")
    return phi2.T @ (mass2[:, None] * pulled)


@single_threaded()
def properness_project(pi: PointMap, phi1: np.ndarray, phi2: np.ndarray,
                       mass2: np.ndarray) -> np.ndarray:
    """Proper functional map of a pointwise map: C = Phi2^T M2 (Pi Phi1)."""
    return _project(pi.apply(phi1), phi2, mass2)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def loss_supervised(C_pred: np.ndarray, C_gt: np.ndarray) -> float:
    """Squared Frobenius distance to a ground-truth map."""
    C_pred = np.asarray(C_pred, dtype=np.float64)
    C_gt = np.asarray(C_gt, dtype=np.float64)
    if C_pred.shape != C_gt.shape:
        raise LengthMismatch(f"shapes differ: {C_pred.shape} vs {C_gt.shape}")
    return float(np.sum((C_pred - C_gt) ** 2))


def loss_properness(C_pred: np.ndarray, C_proper: np.ndarray) -> float:
    """Squared Frobenius distance between a map and its proper projection."""
    return loss_supervised(C_pred, C_proper)


@single_threaded()
def loss_unsupervised(C12: np.ndarray, C21: np.ndarray) -> float:
    """Bijectivity + orthogonality energy on a map pair.

    ||C12 C21 - I||^2 + ||C21 C12 - I||^2 + ||C12^T C12 - I||^2
    + ||C21^T C21 - I||^2 (all squared Frobenius).
    """
    C12 = np.asarray(C12, dtype=np.float64)
    C21 = np.asarray(C21, dtype=np.float64)
    if C12.shape != C21.T.shape:
        raise LengthMismatch(f"C12 {C12.shape} and C21 {C21.shape} do not compose")
    k2, k1 = C12.shape
    i1, i2 = np.eye(k1), np.eye(k2)
    return float(
        np.sum((C12 @ C21 - i2) ** 2)
        + np.sum((C21 @ C12 - i1) ** 2)
        + np.sum((C12.T @ C12 - i1) ** 2)
        + np.sum((C21.T @ C21 - i2) ** 2)
    )


@single_threaded()
def grad_unsupervised(C12: np.ndarray, C21: np.ndarray):
    """Analytic gradient of loss_unsupervised w.r.t. both maps."""
    C12 = np.asarray(C12, dtype=np.float64)
    C21 = np.asarray(C21, dtype=np.float64)
    if C12.shape != C21.T.shape:
        raise LengthMismatch(f"C12 {C12.shape} and C21 {C21.shape} do not compose")
    k2, k1 = C12.shape
    i1, i2 = np.eye(k1), np.eye(k2)
    r_12_21 = C12 @ C21 - i2
    r_21_12 = C21 @ C12 - i1
    o_12 = C12.T @ C12 - i1
    o_21 = C21.T @ C21 - i2
    g12 = 2.0 * r_12_21 @ C21.T + 2.0 * C21.T @ r_21_12 + 4.0 * C12 @ o_12
    g21 = 2.0 * C12.T @ r_12_21 + 2.0 * r_21_12 @ C12.T + 4.0 * C21 @ o_21
    return g12, g21

