"""Correspondence evaluation: geodesic error protocol and accuracy curves."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DisconnectedMesh, IndexOutOfRange, LengthMismatch
from .fmap import PointMap
from .mesh import TriMesh, _fmt, graph_geodesics

_GEODESIC_BLOCK_BYTES = 64 << 20  # bytes of Dijkstra rows geodesic_error holds at once


def _indices(m) -> np.ndarray:
    if isinstance(m, PointMap):
        if m.kind != "hard":
            raise LengthMismatch("evaluation needs hard maps")
        return m.indices
    return np.asarray(m, dtype=np.int64).ravel()


def geodesic_error(pred, gt, mesh_target: TriMesh) -> np.ndarray:
    """Per-vertex geodesic error of a predicted map against ground truth.

    Both maps index into mesh_target (the shape the errors live on). Each
    entry is the graph-geodesic distance between prediction and ground
    truth, divided by the square root of the total surface area, times 100.
    Exact hits score 0.0; Dijkstra runs only from the misses' ground truth,
    in blocks of _GEODESIC_BLOCK_BYTES (memory O(block * n), not O(n^2)). A
    pair separated by a disconnected component raises DisconnectedMesh.
    """
    p, g = _indices(pred), _indices(gt)
    if p.size != g.size:
        raise LengthMismatch(f"prediction has {p.size} entries, ground truth {g.size}")
    n = mesh_target.n_vertices
    for name, arr in (("prediction", p), ("ground truth", g)):
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise IndexOutOfRange(f"{name} indexes outside [0, {n})")
    d = np.zeros(p.size)
    miss = np.nonzero(p != g)[0]
    uniq, inverse = np.unique(g[miss], return_inverse=True)
    step = max(1, _GEODESIC_BLOCK_BYTES // (8 * max(n, 1)))
    for start in range(0, uniq.size, step):
        rows = graph_geodesics(mesh_target, uniq[start:start + step])
        sel = (inverse >= start) & (inverse < start + step)
        d[miss[sel]] = rows[inverse[sel] - start, p[miss[sel]]]
        del rows
    if np.any(np.isinf(d)):
        bad = int(np.nonzero(np.isinf(d))[0][0])
        raise DisconnectedMesh(
            f"vertices {p[bad]} and {g[bad]} lie in different components"
        )
    return d / np.sqrt(mesh_target.total_area()) * 100.0


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
