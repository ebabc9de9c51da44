"""Deterministic synthetic meshes for tests, scripts, and demos.

Everything here is reproducible: no randomness except where an explicit seed
or Generator is taken, and vertex orderings are fixed by construction.
"""

from __future__ import annotations

import numpy as np

from ._blas import single_threaded
from .mesh import TriMesh

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

# 12 vertices / 20 faces of a regular icosahedron, outward-oriented.
_ICO_VERTS = np.array([
    [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
    [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
    [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
], dtype=np.float64)

_ICO_FACES = np.array([
    [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
    [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
    [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
    [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
], dtype=np.int64)


def tetrahedron() -> TriMesh:
    """Regular tetrahedron with unit edge length (total area sqrt(3))."""
    s3, s6 = np.sqrt(3.0), np.sqrt(6.0)
    v = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, s3 / 2.0, 0.0],
        [0.5, s3 / 6.0, s6 / 3.0],
    ])
    t = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]])
    return TriMesh(v, t)


def square_diagonal() -> TriMesh:
    """Unit square split along the diagonal (0, 2).

    The angles opposite the interior edge are the two right angles, so the
    cotangent weight on edge (0, 2) is exactly 0.
    """
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
    ])
    return TriMesh(v, np.array([[0, 1, 2], [0, 2, 3]]))


def kite_45() -> TriMesh:
    """Two right isoceles triangles sharing the leg (0, 1).

    The apex angles opposite the shared edge are both 45 degrees, so its
    cotangent weight is -(cot 45 + cot 45)/2 = -1.
    """
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 0.0],
    ])
    return TriMesh(v, np.array([[0, 1, 2], [0, 3, 1]]))


def collinear_strip() -> TriMesh:
    """Three collinear vertices 1 apart plus one far apex to make it a mesh.

    Along the edge graph, distances between the collinear vertices 0-1-2 are
    0/1/2; the apex sits far enough away that no shortcut through it helps.
    """
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 8.0, 0.0],
    ])
    return TriMesh(v, np.array([[0, 1, 3], [1, 2, 3]]))


def disconnected_triangles() -> TriMesh:
    """Two triangles with no shared vertices (two components)."""
    v = np.array([
        [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
        [10.0, 0.0, 0.0], [11.0, 0.0, 0.0], [10.0, 1.0, 0.0],
    ])
    return TriMesh(v, np.array([[0, 1, 2], [3, 4, 5]]))


@single_threaded()
def icosphere(subdivisions: int = 3) -> TriMesh:
    """Subdivided icosahedron projected to the unit sphere.

    subdivisions 0/1/2/3 give 12/42/162/642 vertices. Vertex order is
    deterministic: original icosahedron first, then edge midpoints in face
    iteration order.
    """
    verts = [v / np.linalg.norm(v) for v in _ICO_VERTS]
    faces = [tuple(f) for f in _ICO_FACES]
    for _ in range(subdivisions):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = verts[a] + verts[b]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return TriMesh(np.asarray(verts), np.asarray(faces, dtype=np.int64))


def bumpy_sphere(subdivisions: int = 3, amplitude: float = 0.12) -> TriMesh:
    """Icosphere with a fixed smooth radial modulation.

    Breaks the icosahedral symmetry, so the Laplacian spectrum is simple and
    intrinsic descriptors separate all vertices; this is the fixture of
    choice whenever a correspondence must be unique.
    """
    base = icosphere(subdivisions)
    x, y, z = base.vertices.T
    r = 1.0 + amplitude * np.sin(3.0 * x + 0.5) * np.cos(2.0 * y - 0.3) \
        + 0.6 * amplitude * np.sin(5.0 * z + 1.1)
    return TriMesh(base.vertices * r[:, None], base.triangles)


def permuted_copy(mesh: TriMesh, seed: int = 0):
    """Vertex-permuted copy plus the ground-truth correspondence back to `mesh`.

    Returns (copy, perm) where copy.vertices[i] == mesh.vertices[perm[i]]:
    perm is exactly the hard map from the copy's vertices onto the original's,
    i.e. the ground truth for a map that assigns each copy vertex its source.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_vertices)
    inv = np.argsort(perm)
    copy = TriMesh(mesh.vertices[perm], inv[mesh.triangles])
    return copy, perm
