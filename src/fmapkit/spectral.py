"""Spectral machinery: cotangent Laplacian, eigenbasis, heat diffusion.

Conventions, fixed once and relied on everywhere:

* W is the positive-semidefinite stiffness matrix: off-diagonal entries are
  -(cot a + cot b)/2 for the two angles opposite the edge, diagonal entries
  make every row sum to zero.
* M is the lumped mass: each vertex gets one third of its incident triangle
  areas, stored as a plain vector (the matrix is diagonal).
* The basis solves W phi = lambda M phi with Phi^T M Phi = I, eigenvalues
  ascending and non-negative; each eigenvector is sign-fixed so its largest
  magnitude entry is positive (ties broken by lowest index).
* Two solvers share that contract, chosen from n and k alone. Small meshes
  (n <= SPARSE_MIN_VERTICES) and large bases (SPARSE_K_RATIO * k >= n) go
  to a dense solver: the generalized problem is reduced to an ordinary
  symmetric one through the M^(-1/2) similarity transform and all n
  eigenpairs are computed; that path is capped at MAX_DENSE_VERTICES.
  Everything else goes to shift-invert Lanczos (ARPACK) on the sparse pencil
  (W, M), which computes only the k wanted pairs and has no size cap.
* The left pseudo-inverse of Phi is Phi^T M; `project` and `reconstruct`
  implement coefficient analysis/synthesis against it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dsyevd
from scipy.sparse.linalg import ArpackError, eigsh

from ._blas import single_threaded
from .errors import InvalidK, SolverFailure, _mass, _matrix, _rows
from .mesh import TriMesh

# cot of angles is clamped to +-cot(1e-6 rad): slivers below the mesh area
# floor never get here, but directly constructed bad geometry stays finite.
COT_CLAMP = 1.0 / np.tan(1e-6)

# dense eigensolver guard
MAX_DENSE_VERTICES = 5000

# Shift-invert Lanczos beats the dense solve clearly only when the mesh is
# large and the basis is a small fraction of it. Below the vertex floor both
# take well under 0.2 s, and the dense path's truncate-equals-smaller-solve
# property holds; at n = 2562 the dense path is faster from k ~ 300 on.
SPARSE_MIN_VERTICES = 1000
SPARSE_K_RATIO = 8

# The shift sits just below the spectrum, relative to a Gershgorin bound on
# lambda_max, so scaling the mesh scales the shifted problem with it.
SPARSE_SHIFT = 1e-8


@dataclass
class LaplacianPair:
    """Stiffness matrix W (sparse, symmetric, PSD) and lumped mass vector."""

    W: sparse.csr_matrix
    mass: np.ndarray

    def __post_init__(self):
        self.mass = np.asarray(self.mass, dtype=np.float64).ravel()
        if self.W.shape != (self.mass.size, self.mass.size):
            raise SolverFailure(
                f"W shape {self.W.shape} does not match mass length {self.mass.size}"
            )
        _mass(self.mass)

    @property
    def n(self) -> int:
        return self.mass.size

    @property
    def M(self) -> sparse.csr_matrix:
        return sparse.diags(self.mass).tocsr()


def build_laplacian(mesh: TriMesh) -> LaplacianPair:
    """Cotangent stiffness + one-third-area lumped mass for a mesh.

    Row sums of W are zero by construction; the matrix is symmetric and
    positive semidefinite (cot values clamped to +-cot(1e-6)).
    """
    v, t = mesh.vertices, mesh.triangles
    # corner c of each triangle is opposite the edge formed by the other two
    cots = np.empty((len(t), 3))
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        ea = v[t[:, a]] - v[t[:, c]]
        eb = v[t[:, b]] - v[t[:, c]]
        cross = np.linalg.norm(np.cross(ea, eb), axis=1)
        cots[:, c] = np.einsum("ij,ij->i", ea, eb) / np.maximum(cross, 1e-300)
    np.clip(cots, -COT_CLAMP, COT_CLAMP, out=cots)

    n = mesh.n_vertices
    rows, cols, vals = [], [], []
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        w = -0.5 * cots[:, c]
        rows += [t[:, a], t[:, b]]
        cols += [t[:, b], t[:, a]]
        vals += [w, w]
    W = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    W = W - sparse.diags(np.asarray(W.sum(axis=1)).ravel())
    return LaplacianPair(W.tocsr(), mesh.vertex_areas())


@dataclass
class SpectralBasis:
    """Truncated eigenbasis of (W, M) with the lumped mass it is orthonormal in.

    phi is (n, k) with Phi^T M Phi = I; lam is ascending and non-negative;
    mass is the (n,) lumped mass vector behind the pseudo-inverse Phi^T M.
    Raises LengthMismatch if phi is not 2-D, lam not (k,) or mass not (n,),
    and SolverFailure if a mass entry is not finite and > 0.
    """

    lam: np.ndarray
    phi: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        self.phi = _matrix(self.phi)
        self.lam = _rows(self.lam, self.k, stack=False)
        self.mass = _mass(_rows(self.mass, self.n, stack=False))

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def k(self) -> int:
        return self.phi.shape[1]

    @single_threaded()
    def project(self, f: np.ndarray) -> np.ndarray:
        """Coefficients Phi^T M f; f is (n,) or (n, d), else LengthMismatch."""
        f = _rows(f, self.n)
        return self.phi.T @ (self.mass[:, None] * f if f.ndim == 2 else self.mass * f)

    @single_threaded()
    def reconstruct(self, a: np.ndarray) -> np.ndarray:
        """Synthesis Phi a; a is (k,) or (k, d), else LengthMismatch."""
        return self.phi @ _rows(a, self.k)

    def truncate(self, k: int) -> "SpectralBasis":
        if not 1 <= k <= self.k:
            raise InvalidK(f"cannot truncate basis of size {self.k} to {k}")
        return SpectralBasis(self.lam[:k].copy(), self.phi[:, :k].copy(), self.mass)


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # largest-magnitude entry of each column made positive; np.argmax takes
    # the first occurrence, which is the lowest-index tie break.
    idx = np.argmax(np.abs(u), axis=0)
    flip = u[idx, np.arange(u.shape[1])] < 0
    u = u.copy()
    u[:, flip] *= -1.0
    return u


@single_threaded()
def eigenbasis(lap: LaplacianPair, k: int = 30) -> SpectralBasis:
    """First k generalized eigenpairs of (W, M), mass-orthonormal.

    Meshes above SPARSE_MIN_VERTICES with SPARSE_K_RATIO * k < n take the
    sparse shift-invert solver; all others take the dense one, which refuses
    meshes above MAX_DENSE_VERTICES. Raises InvalidK when k is outside
    [1, n] and SolverFailure when the solver fails, the operator is not
    positive semidefinite, or the dense path is asked for too large a mesh.
    """
    n = lap.n
    if not 1 <= k <= n:
        raise InvalidK(f"k={k} outside [1, {n}]")
    if n > SPARSE_MIN_VERTICES and SPARSE_K_RATIO * k < n:
        lam, u = _sparse_eigs(lap, k)
    else:
        lam, u = _dense_eigs(lap, k)
    return SpectralBasis(lam, _fix_signs(u), lap.mass)


def _check_psd(lam_min: float, scale: float) -> None:
    if lam_min < -1e-8 * max(scale, 1e-300):
        raise SolverFailure(
            f"operator is not positive semidefinite (lambda_min = {lam_min:g})"
        )


def _dense_eigs(lap: LaplacianPair, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All n eigenpairs of M^(-1/2) W M^(-1/2); the first k, mapped back.

    LAPACK's dsyevd works in B's own buffer: B.T is its Fortran-ordered
    view, so no copy is made, and the eigenvectors overwrite it. The peak is
    B plus dsyevd's 2 n^2 workspace, about 3 n^2 doubles.
    """
    n = lap.n
    if n > MAX_DENSE_VERTICES:
        raise SolverFailure(
            f"{n} vertices exceeds the dense eigensolver cap of {MAX_DENSE_VERTICES}"
        )
    s = 1.0 / np.sqrt(lap.mass)
    B = (lap.W.multiply(s[:, None]).multiply(s[None, :])).toarray()
    B += B.T
    B *= 0.5
    w, u, info = dsyevd(B.T, compute_v=1, lower=1, overwrite_a=1)
    if info != 0:
        raise SolverFailure(f"dense eigensolver failed: LAPACK dsyevd info = {info}")
    _check_psd(w[0], max(abs(w[0]), abs(w[-1])))
    return np.maximum(w[:k], 0.0), u[:, :k] * s[:, None]


def _sparse_eigs(lap: LaplacianPair, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenpairs nearest a small negative shift, by ARPACK.

    The fixed start vector makes the iteration deterministic; ARPACK's
    M-inner product keeps the eigenvectors mass-orthonormal.
    """
    # Gershgorin bound on the spectrum of M^-1 W, the scale for the shift
    # and for the PSD check (only k eigenvalues are known here)
    bound = float((np.asarray(abs(lap.W).sum(axis=1)).ravel() / lap.mass).max())
    try:
        w, u = eigsh(lap.W, k, M=lap.M, sigma=-SPARSE_SHIFT * bound,
                     v0=np.ones(lap.n))
    except (ArpackError, RuntimeError, ValueError) as exc:
        raise SolverFailure(f"sparse eigensolver failed: {exc}") from exc
    order = np.argsort(w, kind="stable")
    w, u = w[order], u[:, order]
    _check_psd(w[0], bound)
    return np.maximum(w, 0.0), u


def _smoothing_size(j: int, n: int) -> int:
    """Smoothing basis size j clamped to the vertex count n, with a warning.

    The warning points at the caller of the function that asked for the clamp.
    """
    if j > n:
        warnings.warn(
            f"smoothing basis size {j} exceeds vertex count {n}; clamping",
            stacklevel=3,
        )
        return n
    return j


def diffuse(basis: SpectralBasis, f: np.ndarray, t: float) -> np.ndarray:
    """Heat diffusion Phi exp(-t lambda) Phi^T M f for a finite t >= 0.

    Works column-wise when f is (n, d). Contracts the M-norm and converges
    to the area-weighted mean (times the constant) as t grows.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"diffusion time must be finite and >= 0, got {t}")
    a = basis.project(f)
    decay = np.exp(-t * basis.lam)
    return basis.reconstruct(a * (decay[:, None] if a.ndim == 2 else decay))


def smooth_features(basis: SpectralBasis, values: np.ndarray, t: float) -> np.ndarray:
    """Column-wise diffusion of a feature stack through the given basis.

    The output lies in span(Phi) exactly, so it is complete with respect to
    this basis by construction (completeness 1 up to rounding), whatever the
    input was.
    """
    return diffuse(basis, _matrix(values), t)


def eigen_residuals(lap: LaplacianPair, basis: SpectralBasis) -> np.ndarray:
    """Per-column relative residuals ||W phi - lam M phi|| / (||W|| ||phi||)."""
    r = lap.W @ basis.phi - lap.mass[:, None] * basis.phi * basis.lam[None, :]
    w_norm = max(float(np.abs(lap.W).sum(axis=1).max()), 1e-300)
    return np.linalg.norm(r, axis=0) / (w_norm * np.linalg.norm(basis.phi, axis=0))

