"""Exception types shared across the toolkit.

Bad data and bad shapes raise an FmapError subclass, so callers (and the
CLI) can tell data problems from genuine bugs. Any vertex index outside
the mesh raises IndexOutOfRange, and an index array that is not 1-D
integers raises LengthMismatch. An array of the wrong shape, or two arrays
that must agree in width or row count and do not, raise LengthMismatch
naming the expected shape (spectral's one shape check). A parameter out of
its range raises ValueError, NaN included: tau, sigma (finite, > 0), mu, a
diffusion time t and HKS times (finite, >= 0), iters or the refine mode;
empty HKS times or WKS energies, a non-finite energy, or energies with
no spectral support; mu > 0 without eigenvalues; nearest rows sought
among no points. The CLI checks its flags before they reach the library,
and exits 2 on a bad one.
"""


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
