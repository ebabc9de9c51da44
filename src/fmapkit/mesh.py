"""Triangle meshes: validation, areas, graph geodesics, and every file format.

A mesh is vertices (n, 3) float64 plus triangles (m, 3) int64. Construction
validates index ranges and rejects geometrically degenerate input; everything
downstream (mass matrices, geodesics) relies on those guarantees.

Meshes are ASCII only: OFF, OBJ, and ASCII PLY, chosen by the file
extension. Every other numeric file (correspondences, landmark pairs) is one
headerless text table of indices, read by read_table and written by
write_table. Parsing is strict and order-preserving, so parse -> serialize
-> parse is an identity, and every malformed file raises ParseError.
_file_text is the one place a file is read.

load_mesh keeps the MESH_CACHE_SIZE most recently loaded meshes of the
process, keyed on the format and the text read, so a file loaded again
(under any path) is parsed and validated once and its TriMesh, with its
memoised edge graph, is shared. `derived` keeps with each mesh what later
steps derive from it (its eigenbasis, eval's landmark rows).
"""

from __future__ import annotations

import hashlib
import mmap
import weakref
from itertools import islice
from pathlib import Path

import numpy as np
from scipy import sparse

from ._lru import LRU
from .errors import DegenerateMesh, IndexOutOfRange, LengthMismatch, ParseError

# Triangles are rejected when their area falls below this fraction of the
# squared bounding-box diagonal; keeps cotangents and masses finite.
AREA_FLOOR_SCALE = 1e-12

_TABLE_CHUNK_ROWS = 1024  # rows of a text table whose tokens _table converts at once
_GEODESIC_BLOCK_ROWS = 32  # sources per Dijkstra call when a larger table is assembled

# Meshes of the most recently loaded files; two cover a loop that matches
# one fixed shape against a stream of others.
MESH_CACHE_SIZE = 2
_meshes = LRU(MESH_CACHE_SIZE)

# Per mesh, one LRU(1) per kind of derived value (see derived).
_derived: weakref.WeakKeyDictionary[TriMesh, dict[str, LRU]] = weakref.WeakKeyDictionary()


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips through float()."""
    return repr(float(x))


def _vertex_indices(idx, n: int, what: str) -> np.ndarray:
    """Indices into n vertices as an int64 (m,) array, the one index check.

    Anything but a 1-D integer array (an empty one of any dtype passes)
    raises LengthMismatch; an index outside [0, n), IndexOutOfRange.
    """
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise LengthMismatch(f"{what} indices must be (m,) integers, got {idx.dtype} {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexOutOfRange(
            f"{what} index out of range [0, {n}): min {idx.min()}, max {idx.max()}"
        )
    return idx.astype(np.int64, copy=False)


class TriMesh:
    """Validated triangle mesh.

    Parameters
    ----------
    vertices : array_like of shape (n, 3)
        Vertex positions, copied to float64.
    triangles : array_like of shape (m, 3)
        Integer vertex indices per triangle, copied to int64.

    Raises
    ------
    IndexOutOfRange
        If a triangle references a vertex outside [0, n).
    LengthMismatch
        If the triangles are not integers.
    DegenerateMesh
        If there is no triangle, a triangle has repeated vertices, its
        area is below the degeneracy floor (1e-12 x squared bounding-box
        diagonal), or a vertex is referenced by no triangle (its lumped
        mass would be 0).

    Notes
    -----
    A mesh is immutable. It holds read-only copies of its arrays, and
    `vertices` and `triangles` cannot be reassigned (AttributeError), so
    nothing can change the geometry under the edge_graph() memo. Build a
    new TriMesh for new geometry.
    """

    def __init__(self, vertices, triangles):
        v = np.array(vertices, dtype=np.float64)
        t = np.array(triangles)
        if v.ndim != 2 or v.shape[1] != 3:
            raise DegenerateMesh(f"vertices must be (n, 3), got {v.shape}")
        if not np.isfinite(v).all():
            raise DegenerateMesh("non-finite vertex coordinate")
        if t.ndim != 2 or t.shape[1] != 3 or not len(t):
            raise DegenerateMesh(f"triangles must be (m, 3) with m >= 1, got {t.shape}")
        if t.dtype.kind not in "iu":
            raise LengthMismatch(f"triangle indices must be integers, got {t.dtype} {t.shape}")
        t = _vertex_indices(t.ravel(), len(v), "triangle").reshape(-1, 3)
        if np.any(t[:, 0] == t[:, 1]) or np.any(t[:, 1] == t[:, 2]) or np.any(t[:, 0] == t[:, 2]):
            raise DegenerateMesh("triangle with repeated vertex index")
        v.flags.writeable = t.flags.writeable = False
        self._vertices, self._triangles = v, t
        self._graph = (None, ())  # (edge graph, its arrays when built)

        areas = self.triangle_areas()
        bbox_diag_sq = float(np.sum((v.max(axis=0) - v.min(axis=0)) ** 2))
        floor = AREA_FLOOR_SCALE * bbox_diag_sq
        bad = np.nonzero(areas <= floor)[0]
        if bad.size:
            raise DegenerateMesh(
                f"{bad.size} triangle(s) at or below the area floor "
                f"{floor:g}; first offender: triangle {bad[0]}"
            )
        used = np.zeros(len(v), dtype=bool)
        used[t.ravel()] = True
        if not used.all():
            raise DegenerateMesh(
                f"vertex {int(np.nonzero(~used)[0][0])} is referenced by no "
                "triangle (lumped mass would vanish)"
            )

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    @property
    def triangles(self) -> np.ndarray:
        return self._triangles

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_areas(self) -> np.ndarray:
        """Areas of all triangles, shape (m,)."""
        p = self.vertices[self.triangles]
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def vertex_areas(self) -> np.ndarray:
        """Lumped vertex areas: one third of each incident triangle, shape (n,).

        Strictly positive (construction guarantees every vertex is used and
        every triangle clears the area floor). Sums to total_area exactly up
        to rounding.
        """
        areas = self.triangle_areas()
        va = np.zeros(self.n_vertices)
        np.add.at(va, self.triangles.ravel(), np.repeat(areas / 3.0, 3))
        return va

    def total_area(self) -> float:
        return float(self.triangle_areas().sum())

    def edges(self) -> np.ndarray:
        """Unique undirected edges as sorted index pairs, shape (e, 2)."""
        t, n = self.triangles, self.n_vertices
        raw = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        raw.sort(axis=1)
        keys = np.unique(raw[:, 0] * n + raw[:, 1])  # row-major order of the pairs
        return np.stack([keys // n, keys % n], axis=1)

    def edge_graph(self) -> sparse.csr_matrix:
        """Symmetric sparse adjacency with Euclidean edge lengths as weights.

        Built once per mesh. The returned matrix is shared by every caller,
        graph_geodesics included, and must not be modified: its data,
        indices and indptr are read-only, and a change that replaces them
        (setdiag of a new entry, say) makes the next call build a fresh graph.
        """
        g, parts = self._graph
        if g is not None and all(a is b for a, b in zip(parts, (g.data, g.indices, g.indptr))):
            return g
        e = self.edges()
        w = np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)
        n = self.n_vertices
        g = sparse.coo_matrix(
            (np.concatenate([w, w]), (np.concatenate([e[:, 0], e[:, 1]]),
                                      np.concatenate([e[:, 1], e[:, 0]]))),
            shape=(n, n),
        ).tocsr()
        parts = (g.data, g.indices, g.indptr)
        for a in parts:
            a.flags.writeable = False
        self._graph = (g, parts)
        return g


def derived(mesh: TriMesh, kind: str, param, build):
    """The value of `kind` derived from `mesh` with `param`, or build() kept as it.

    A mesh keeps one value per kind in an LRU(1): another `param` drops it
    before the build, and a build that raises keeps nothing. Threads agree
    on that LRU (each setdefault is one atomic dict operation). The values
    die with the mesh, so none may refer to it.
    """
    return _derived.setdefault(mesh, {}).setdefault(kind, LRU(1)).get(param, build)


def graph_geodesics(mesh: TriMesh, sources=None, limit=np.inf) -> np.ndarray:
    """Shortest-path distances along mesh edges (Euclidean weights).

    Parameters
    ----------
    mesh : TriMesh
    sources : array_like of int, optional
        Source vertices, 1-D (`_vertex_indices`); all vertices when omitted.
    limit : float, optional
        Search radius: vertices farther than `limit` from a source get +inf.
        Every distance <= limit is the same float as with no limit, since
        its shortest path runs only through nearer vertices.

    Returns
    -------
    ndarray of shape (len(sources), n)
        Row s holds distances from sources[s] to every vertex. Unreachable
        vertices get +inf; it is the caller's job to decide whether that is
        an error (see evaluate.geodesic_error).

    The edge graph holds both directions of every edge with one weight, so
    a directed search relaxes the same candidate floats as an undirected
    one and settles the same bits; scipy's undirected mode would also scan
    a transposed copy of the graph.

    More than _GEODESIC_BLOCK_ROWS sources are searched that many at a time
    into a table in its own memory mapping (_mapped_table), so dropping the
    table returns its pages at once. Each row is the same bits either way.
    """
    if sources is None:
        sources = np.arange(mesh.n_vertices)
    sources = _vertex_indices(sources, mesh.n_vertices, "geodesic source")
    if sources.size == 0:
        return np.zeros((0, mesh.n_vertices))
    from scipy.sparse.csgraph import dijkstra   # here, so only a search loads csgraph
    graph = mesh.edge_graph()
    if sources.size <= _GEODESIC_BLOCK_ROWS:
        return dijkstra(graph, directed=True, indices=sources, limit=limit)
    table = _mapped_table(sources.size, mesh.n_vertices)
    for start in range(0, sources.size, _GEODESIC_BLOCK_ROWS):
        block = sources[start:start + _GEODESIC_BLOCK_ROWS]
        table[start:start + block.size] = dijkstra(graph, directed=True, indices=block,
                                                   limit=limit)
    return table


def _mapped_table(rows: int, cols: int) -> np.ndarray:
    """A writable float64 (rows, cols) array in an anonymous mapping of its own.

    Freeing the array unmaps it. A malloc'ed table would not always leave:
    glibc raises its mmap threshold to the size of each mapped block it
    frees, so the next table of about that size lands on the heap and stays
    resident after it is freed, and a later, larger one is mapped beside
    it. A caller that builds tables of varying size one after another would
    then peak at one or two tables depending on the order of their sizes.
    """
    buf = mmap.mmap(-1, 8 * rows * cols)
    return np.frombuffer(buf, dtype=np.float64).reshape(rows, cols)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _meaningful_lines(text: str):
    """Yield (lineno, line) skipping blanks and '#' comment lines."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield no, line


def _file_text(path, what: str) -> str:
    """The text of a file; a missing, unreadable or binary file is ParseError."""
    try:
        return Path(path).read_text()
    except FileNotFoundError as exc:
        raise ParseError(f"{what} file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file (binary formats unsupported)") from exc
    except OSError as exc:
        raise ParseError(f"{path}: cannot read {what} file: {exc.strerror or exc}") from exc


def _numbers(tokens, dtype, where) -> np.ndarray:
    """Tokens through Python's own float() or int(), as a float64/int64 array.

    int tokens are counts or 0-based indices: they must lie in [0, 2**63).
    """
    try:
        out = np.fromiter(map(dtype, tokens), np.int64 if dtype is int else np.float64,
                          len(tokens))
    except (ValueError, OverflowError) as exc:
        kind = "integers in [0, 2**63)" if dtype is int else "numbers"
        raise ParseError(f"{where}: expected {kind}, got {tokens!r}") from exc
    if dtype is int and out.size and out.min() < 0:
        raise ParseError(f"{where}: counts and indices must be non-negative, got {tokens!r}")
    return out


def _table(lines, path, dtype, width) -> np.ndarray:
    """(rows, width) array from (lineno, line) pairs.

    Every row must hold `width` tokens. Tokens are converted as one flat
    list per _TABLE_CHUNK_ROWS rows; only on failure are the lines looked up
    one by one, so the error names the first bad line, whether its token
    count or one of its tokens is wrong.
    """
    lines, chunks, n_rows = iter(lines), [_numbers([], dtype, path)], 0
    while chunk := list(islice(lines, _TABLE_CHUNK_ROWS)):
        rows = [line.split() for _, line in chunk]
        try:
            if any(len(toks) != width for toks in rows):
                raise ParseError(f"{path}: ragged row")   # located below
            chunks.append(_numbers([t for toks in rows for t in toks], dtype, path))
        except ParseError:
            for (no, _), toks in zip(chunk, rows):
                if len(toks) != width:
                    raise ParseError(f"{path}:{no}: expected {width} values, got {len(toks)}")
                _numbers(toks, dtype, f"{path}:{no}")
            raise
        n_rows += len(chunk)
    return np.concatenate(chunks).reshape(n_rows, width)


def read_table(path, what: str, width: int) -> np.ndarray:
    """Read a text table of indices: one or more rows, no header.

    Blank lines and '#' comments are skipped anywhere. Every row holds
    `width` 0-based indices, which must be non-negative.

    Returns a (rows, width) int64 array. Any malformed file (missing,
    binary, no rows, ragged row, bad token) raises ParseError; `what` names
    the file kind in the message.
    """
    table = _table(_meaningful_lines(_file_text(path, what)), path, int, width)
    if not len(table):
        raise ParseError(f"{path}: empty {what} file")
    return table


def write_table(a, path) -> None:
    """Write a 2-D integer array one row per line."""
    Path(path).write_text("\n".join(" ".join(map(str, row)) for row in a.tolist()) + "\n")


def _triangles(lines, path) -> np.ndarray:
    """(m, 3) indices from '3 i j k' face lines (OFF and PLY)."""
    faces = _table(lines, path, int, 4)
    bad = np.nonzero(faces[:, 0] != 3)[0]
    if bad.size:
        no, line = lines[bad[0]]
        raise ParseError(f"{path}:{no}: face line must be '3 i j k', got {line!r}")
    return faces[:, 1:].copy()


def _parse_off(text: str, path) -> TriMesh:
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError(f"{path}: empty file")
    no, header = lines[0]
    if header != "OFF":
        raise ParseError(f"{path}:{no}: expected 'OFF' header, got {header!r}")
    if len(lines) < 2:
        raise ParseError(f"{path}: missing count line")
    n, m, _ = _table(lines[1:2], path, int, 3)[0].tolist()
    if len(lines) - 2 < n + m:
        raise ParseError(
            f"{path}: expected {n} vertices and {m} faces, file has {len(lines) - 2} lines"
        )
    v, t = _table(lines[2:2 + n], path, float, 3), _triangles(lines[2 + n:2 + n + m], path)
    del lines  # free the line list before TriMesh validation allocates
    return TriMesh(v, t)


def _serialize_off(mesh: TriMesh) -> str:
    out = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    out += [" ".join(_fmt(c) for c in v) for v in mesh.vertices]
    out += ["3 {} {} {}".format(*t) for t in mesh.triangles]
    return "\n".join(out) + "\n"


def _parse_obj(text: str, path) -> TriMesh:
    verts, faces = [], []
    for no, line in _meaningful_lines(text):
        toks = line.split()
        if toks[0] == "v":
            verts.append((no, line[1:]))
        elif toks[0] == "f":
            faces.append((no, " ".join(t.split("/", 1)[0] for t in toks[1:])))
        # vn/vt/o/g/s/usemtl/mtllib lines carry no geometry here
    if not verts:
        raise ParseError(f"{path}: no vertices found")
    tris = _table(faces, path, int, 3)
    bad = np.nonzero((tris < 1).any(axis=1))[0]
    if bad.size:
        no, line = faces[bad[0]]
        raise ParseError(f"{path}:{no}: OBJ indices are 1-based, got {line!r}")
    return TriMesh(_table(verts, path, float, 3), tris - 1)


def _serialize_obj(mesh: TriMesh) -> str:
    out = [" ".join(["v"] + [_fmt(c) for c in v]) for v in mesh.vertices]
    out += ["f {} {} {}".format(*(t + 1)) for t in mesh.triangles]
    return "\n".join(out) + "\n"


def _parse_ply(text: str, path) -> TriMesh:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError(f"{path}: not a PLY file (missing 'ply' magic)")
    counts: dict[str, int] = {}
    vertex_props: list[str] = []
    current = None
    body_start = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("comment"):
            continue
        toks = line.split()
        if toks[0] == "format":
            if len(toks) < 2 or toks[1] != "ascii":
                raise ParseError(f"{path}:{lineno}: binary PLY is not supported, ASCII only")
        elif toks[0] == "element":
            if len(toks) != 3:
                raise ParseError(f"{path}:{lineno}: bad element line {line!r}")
            current = toks[1]
            if current not in ("vertex", "face"):
                raise ParseError(f"{path}:{lineno}: unsupported element {current!r}")
            counts[current] = int(_numbers(toks[2:], int, f"{path}:{lineno}")[0])
        elif toks[0] == "property":
            if current == "vertex":
                vertex_props.append(toks[-1])
        elif toks[0] == "end_header":
            body_start = lineno
            break
        else:
            raise ParseError(f"{path}:{lineno}: unexpected header line {line!r}")
    if body_start is None or len(counts) != 2:
        raise ParseError(f"{path}: incomplete PLY header")
    if vertex_props != ["x", "y", "z"]:
        raise ParseError(
            f"{path}: vertex properties must be exactly x y z, got {vertex_props}"
        )
    n, m = counts["vertex"], counts["face"]
    body = [(no, ln.strip()) for no, ln in enumerate(lines[body_start:], start=body_start + 1)
            if ln.strip()]
    if len(body) < n + m:
        raise ParseError(f"{path}: expected {n + m} body lines, got {len(body)}")
    return TriMesh(_table(body[:n], path, float, 3), _triangles(body[n:n + m], path))


def _serialize_ply(mesh: TriMesh) -> str:
    out = [
        "ply",
        "format ascii 1.0",
        f"element vertex {mesh.n_vertices}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {mesh.n_triangles}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    out += [" ".join(_fmt(c) for c in v) for v in mesh.vertices]
    out += ["3 {} {} {}".format(*t) for t in mesh.triangles]
    return "\n".join(out) + "\n"


_PARSERS = {"off": _parse_off, "obj": _parse_obj, "ply": _parse_ply}
_SERIALIZERS = {"off": _serialize_off, "obj": _serialize_obj, "ply": _serialize_ply}


def _format(path: Path) -> str:
    fmt = path.suffix.lstrip(".").lower()
    if fmt not in _PARSERS:
        raise ParseError(f"unsupported mesh format {fmt!r} for {path}")
    return fmt


def load_mesh(path) -> TriMesh:
    """Load an ASCII mesh file; the extension (.off, .obj, .ply) names the format.

    The file is read on every call. Its text is parsed and validated once
    while its format and a digest of the text are among the MESH_CACHE_SIZE
    most recently loaded: a hit returns the same immutable TriMesh, with its
    memoised edge_graph(), whatever the path; a file rewritten in place
    misses. A file that fails to parse is not cached, and its ParseError
    names its own path.
    """
    path = Path(path)
    fmt = _format(path)
    text = _file_text(path, "mesh")
    key = (fmt, hashlib.blake2b(text.encode(), digest_size=16).digest())
    return _meshes.get(key, lambda: _PARSERS[fmt](text, path))


def save_mesh(mesh: TriMesh, path) -> None:
    path = Path(path)
    path.write_text(_SERIALIZERS[_format(path)](mesh))


def load_correspondence(path) -> np.ndarray:
    """One 0-based target index per source vertex, one per line."""
    return read_table(path, "correspondence", width=1).ravel()


def save_correspondence(indices, path) -> None:
    """One index per line; checked by `_vertex_indices` first, so a file is
    written only if load_correspondence would read it back."""
    write_table(_vertex_indices(indices, 2**63, "correspondence").reshape(-1, 1), path)
