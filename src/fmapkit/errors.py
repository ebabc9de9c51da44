"""Exception types shared across the toolkit, and the array contract.

Bad data and bad shapes raise an FmapError subclass, so callers (and the
CLI) can tell data problems from genuine bugs. The array contract lives
here, in three checks: `_matrix` (float64 2-D), `_rows` (float64 vectors
or stacks of rows) and `_vertex_indices` (int64 vertex indices). An array
of the wrong shape, two arrays that must agree in width or row count and
do not, or indices that are not integers raise LengthMismatch naming the
expected shape; a vertex index outside the mesh raises IndexOutOfRange,
and a mass entry that is not finite and > 0 SolverFailure (`_mass`).
A parameter out of its range raises ValueError, NaN included: tau, sigma
(finite, > 0), mu, a diffusion time t and HKS times (finite, >= 0), iters
or the refine mode; empty HKS times or WKS energies, a non-finite energy,
or energies with no spectral support; mu > 0 without eigenvalues; nearest
rows sought among no points. The CLI checks its flags before they reach
the library, and exits 2 on a bad one.
"""

import numpy as np


class FmapError(Exception):
    """Base class for all toolkit errors."""


class ParseError(FmapError):
    """Malformed or unsupported input file."""


class DegenerateMesh(FmapError):
    """Mesh violates a geometric sanity bound (zero-area face, unused vertex)."""


class IndexOutOfRange(FmapError):
    """A vertex/triangle/landmark index points outside the mesh."""


class DisconnectedMesh(FmapError):
    """A geodesic query needed a path between disconnected components."""


class LengthMismatch(FmapError):
    """Two sequences that must align (pred/gt maps, times/energies) do not."""


class InvalidK(FmapError):
    """Requested basis size is not in [1, n]."""


class SolverFailure(FmapError):
    """An eigensolve failed: the dense or sparse solver raised or did not
    converge, the operator is not positive semidefinite, or a mesh too large
    for the dense solver was sent to it."""


class AllEigenvaluesExcluded(FmapError):
    """Every eigenvalue fell under the spectral cutoff (WKS on a flat spectrum)."""


class MissingFeatures(FmapError):
    """An operation needed descriptor values that were not supplied."""


class ZeroFeatures(FmapError):
    """A measure is undefined because the feature matrix is identically zero."""


class RankDeficient(FmapError):
    """Unregularized map estimation hit a singular descriptor Gram matrix."""


def _matrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """`a` as a float64 2-D array of `rows` rows and `cols` columns where
    given, the one 2-D shape check: a descriptor stack (n, d), coefficients
    (k, d), a functional map (k2, k1), a soft map (n2, n1).

    Any other shape raises LengthMismatch naming the expected shape, with
    n and d for a size that is not checked.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or rows not in (None, a.shape[0]) or cols not in (None, a.shape[1]):
        want = f"{'n' if rows is None else rows}, {'d' if cols is None else cols}"
        raise LengthMismatch(f"expected ({want}) array, got shape {a.shape}")
    return a


def _rows(a, n: int, stack: bool = True) -> np.ndarray:
    """`a` as a float64 (n,) vector or, with `stack`, an (n, d) stack too;
    any other shape is LengthMismatch."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim not in ((1, 2) if stack else (1,)) or len(a) != n:
        want = f"({n},) or ({n}, d)" if stack else f"({n},)"
        raise LengthMismatch(f"expected {want}, got {a.shape}")
    return a


def _mass(mass: np.ndarray) -> np.ndarray:
    """`mass` if every entry is finite and > 0, the one mass rule; else SolverFailure."""
    if not ((mass > 0) & (mass < np.inf)).all():
        raise SolverFailure("mass vector must be finite and strictly positive")
    return mass


def _vertex_indices(idx, n: int, what: str, shape: tuple = (None,)) -> np.ndarray:
    """Indices into n vertices as an int64 array of `shape` (None for a
    free size, m in messages), the one index check.

    Anything but an integer array of that shape (an empty one of any dtype
    passes) raises LengthMismatch; an index outside [0, n), IndexOutOfRange.
    """
    idx = np.asarray(idx)
    if (idx.ndim != len(shape) or any(s not in (None, i) for s, i in zip(shape, idx.shape))
            or (idx.size and idx.dtype.kind not in "iu")):
        want = ", ".join("m" if s is None else str(s) for s in shape) + "," * (len(shape) == 1)
        raise LengthMismatch(
            f"{what} indices must be ({want}) integers, got {idx.dtype} {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexOutOfRange(
            f"{what} index out of range [0, {n}): min {idx.min()}, max {idx.max()}"
        )
    return idx.astype(np.int64, copy=False)
