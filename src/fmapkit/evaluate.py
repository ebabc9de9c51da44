"""Correspondence evaluation: geodesic error protocol and accuracy curves."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DisconnectedMesh, LengthMismatch
from . import mesh as _mesh
from .mesh import TriMesh, _fmt, _vertex_indices, derived, graph_geodesics

_LANDMARKS = 32        # farthest-point landmarks whose rows bound each miss's distance
_BOUND_SLACK = 1e-9    # relative slack on a landmark bound, for rounding


def _landmarks(mesh: TriMesh) -> np.ndarray:
    """Distances from each of the mesh's landmarks to every vertex, read-only.

    The landmarks are picked by farthest-point sampling from vertex 0, one
    single-source search each, so they depend on the mesh alone. The
    (min(_LANDMARKS, n), n) rows are searched on the mesh's first use and
    kept with it (mesh.derived): 656 KB at n = 2562, 42 MB at n = 163842.
    """
    def search():
        n = mesh.n_vertices
        mesh.edge_graph()  # first, so its temporaries never meet the rows
        rows = np.empty((min(_LANDMARKS, n), n))
        nearest = np.full(n, np.inf)  # distance to the closest landmark so far
        landmark = 0
        for row in rows:
            row[:] = graph_geodesics(mesh, [landmark])[0]
            np.minimum(nearest, row, out=nearest)
            landmark = int(np.argmax(nearest))
        rows.flags.writeable = False
        return rows

    return derived(mesh, "landmarks", None, search)


def _landmark_bounds(mesh: TriMesh, g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Upper bounds on the distances d(g_i, p_i), by the triangle inequality.

    The bound is min over the mesh's landmarks L of d(L, g_i) + d(L, p_i),
    widened by _BOUND_SLACK. A pair no landmark reaches on both ends gets
    +inf.
    """
    bound = np.full(g.size, np.inf)
    for row in _landmarks(mesh):
        np.minimum(bound, row[g] + row[p], out=bound)
    return bound * (1.0 + _BOUND_SLACK)


def _search(mesh: TriMesh, p: np.ndarray, g: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """d(g_i, p_i) for every i, searched from the unique g.

    Sources are ordered by the largest `reach` among their entries and
    searched mesh._GEODESIC_BLOCK_ROWS at a time, each group with its
    largest reach as limit.
    An entry the limit cut off (its distance exceeds its finite reach) is
    searched again with no limit.
    """
    step = _mesh._GEODESIC_BLOCK_ROWS
    uniq, inverse = np.unique(g, return_inverse=True)
    far = np.full(uniq.size, -np.inf)
    np.maximum.at(far, inverse, reach)
    order = np.argsort(far, kind="stable")
    rank = np.argsort(order)[inverse]  # search position of each entry's source
    d = np.empty(g.size)
    for start in range(0, uniq.size, step):
        group = order[start:start + step]
        rows = graph_geodesics(mesh, uniq[group], limit=far[group[-1]])
        sel = np.nonzero((rank >= start) & (rank < start + step))[0]
        d[sel] = rows[rank[sel] - start, p[sel]]
        del rows
    cut = np.nonzero(np.isinf(d) & np.isfinite(reach))[0]
    if cut.size:
        d[cut] = _search(mesh, p[cut], g[cut], np.full(cut.size, np.inf))
    return d


def geodesic_error(pred, gt, mesh_target: TriMesh) -> np.ndarray:
    """Per-vertex geodesic error of a predicted map against ground truth.

    Both maps index into mesh_target (the shape the errors live on). Each
    entry is the graph-geodesic distance between prediction and ground
    truth, divided by the square root of the total surface area, times 100.
    Exact hits score 0.0 and Dijkstra runs only from the misses' unique
    ground truth, at most mesh._GEODESIC_BLOCK_ROWS sources per call:
    memory O((group + landmarks) * n), not O(n^2).

    With more than that many such sources, each miss's distance is first
    bounded through the rows of the mesh's _LANDMARKS landmarks
    (_landmark_bounds), searched once per mesh object and kept with it,
    and each group of sources, ordered by bound, searches only up to its
    largest bound. A distance within the limit is the same float as with
    no limit; a miss the limit cut off (a bound that rounding made too
    tight) is searched again with none. So the errors are the same bits as
    from a full n x n table. A pair separated by a disconnected component
    raises DisconnectedMesh.
    """
    n = mesh_target.n_vertices
    p, g = _vertex_indices(pred, n, "prediction"), _vertex_indices(gt, n, "ground truth")
    if p.size != g.size:
        raise LengthMismatch(f"prediction has {p.size} entries, ground truth {g.size}")
    area = mesh_target.total_area()  # first, so its temporaries never meet the rows
    miss = np.nonzero(p != g)[0]
    reach = np.full(miss.size, np.inf)
    if np.unique(g[miss]).size > _mesh._GEODESIC_BLOCK_ROWS:
        reach = _landmark_bounds(mesh_target, g[miss], p[miss])
    d = np.zeros(p.size)
    d[miss] = _search(mesh_target, p[miss], g[miss], reach)
    if np.any(np.isinf(d)):
        bad = int(np.nonzero(np.isinf(d))[0][0])
        raise DisconnectedMesh(
            f"vertices {p[bad]} and {g[bad]} lie in different components"
        )
    return d / np.sqrt(area) * 100.0


def accuracy_curve(errors, thresholds) -> np.ndarray:
    """Fraction of errors at or below each threshold.

    Non-decreasing for ascending thresholds; threshold 0 counts the exact
    hits.
    """
    errors = np.asarray(errors, dtype=np.float64).ravel()
    thresholds = np.asarray(thresholds, dtype=np.float64).ravel()
    if errors.size == 0:
        raise LengthMismatch("no errors to aggregate")
    return np.array([float(np.mean(errors <= t)) for t in thresholds])


def write_error_report(errors, path) -> None:
    """CSV 'vertex,error' rows followed by a 'mean=<value>' summary line."""
    errors = np.asarray(errors, dtype=np.float64).ravel()
    lines = ["vertex,error"]
    lines += [f"{i},{_fmt(e)}" for i, e in enumerate(errors)]
    lines.append(f"mean={float(errors.mean()):.6f}")
    Path(path).write_text("\n".join(lines) + "\n")
