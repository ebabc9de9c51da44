"""Mesh container, geodesics, and file-format round trips.

Geometry checks compare against the independent routes in oracles.py
(Heron areas, heapq Dijkstra); a few values are pinned as literals that were
computed with those oracles before the implementation existed. The file
format tests here cover every numeric text reader in the package: the mesh
parsers and the index tables (correspondences, landmark pairs) all convert
their rows in mesh._table.
"""

import mmap
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

import oracles as orc
from fmapkit import mesh as mesh_module, synth
from fmapkit.cli import load_landmark_pairs
from fmapkit.descriptors import descriptor_landmarks
from fmapkit.diagnostics import energy_terms, measure_basis_aligning, measure_properness
from fmapkit.errors import (
    DegenerateMesh,
    FmapError,
    IndexOutOfRange,
    LengthMismatch,
    ParseError,
)
from fmapkit.evaluate import geodesic_error
from fmapkit.fmap import properness_project
from fmapkit.mesh import (
    TriMesh,
    graph_geodesics,
    load_correspondence,
    load_mesh,
    read_table,
    save_correspondence,
    save_mesh,
    write_table,
)
from fmapkit.spectral import build_laplacian, eigenbasis

# pinned with oracles.dijkstra_ref / total_area_heron before wiring in scipy
ICO642_AREA = 12.506492733969862
ICO642_ANTIPODE = 3
ICO642_ANTIPODAL_DIST = 3.3187961651320244
STRIP_DISTS = [0.0, 1.0, 2.0, 8.06225774829855]  # last one = sqrt(65)


# every text reader, with the file extension its input is given
READERS = {
    "correspondence": ("txt", load_correspondence),
    "landmarks": ("txt", load_landmark_pairs),
    "off": ("off", load_mesh),
    "obj": ("obj", load_mesh),
    "ply": ("ply", load_mesh),
}

# near-valid starts, so the fuzz also reaches the code past each header (a
# tag line such as "FMAP " opening a headerless table is rejected as a bad row)
FUZZ_PREFIXES = ["", "FMAP ", "FEAT ", "SPECBASIS ", "OFF\n", "v ", "f ",
                 "ply\nformat ascii 1.0\nelement vertex "]


class TestTriMeshValidation:
    def test_basic_attributes(self, tetra):
        assert tetra.n_vertices == 4
        assert tetra.n_triangles == 4
        assert tetra.vertices.dtype == np.float64
        assert tetra.triangles.dtype == np.int64

    def test_rejects_bad_vertex_shape(self):
        with pytest.raises(DegenerateMesh):
            TriMesh(np.zeros((3, 2)), [[0, 1, 2]])

    def test_rejects_index_out_of_range(self):
        verts = np.eye(3)
        with pytest.raises(IndexOutOfRange):
            TriMesh(verts, [[0, 1, 3]])
        with pytest.raises(IndexOutOfRange):
            TriMesh(verts, [[0, -1, 2]])

    def test_rejects_repeated_corner(self):
        with pytest.raises(DegenerateMesh):
            TriMesh(np.eye(3), [[0, 1, 1]])

    def test_rejects_zero_area_triangle(self):
        verts = [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
        with pytest.raises(DegenerateMesh):
            TriMesh(verts, [[0, 1, 2]])

    def test_rejects_unreferenced_vertex(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]]
        with pytest.raises(DegenerateMesh):
            TriMesh(verts, [[0, 1, 2]])

    def test_rejects_nonfinite_vertex(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, np.nan, 0]]
        with pytest.raises(DegenerateMesh):
            TriMesh(verts, [[0, 1, 2]])

    def test_rejects_a_mesh_with_no_triangles(self):
        with pytest.raises(DegenerateMesh, match="m >= 1"):
            TriMesh(np.zeros((0, 3)), np.zeros((0, 3), int))

    def test_float_triangles_name_their_own_shape(self):
        with pytest.raises(LengthMismatch) as info:
            TriMesh(np.eye(3), np.array([[0.0, 1.0, 2.0]]))
        assert str(info.value) == "triangle indices must be integers, got float64 (1, 3)"


class TestAreas:
    def test_tetra_total_area_is_analytic(self, tetra):
        assert tetra.total_area() == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_tetra_vertex_areas_split_evenly(self, tetra):
        # every vertex touches 3 of the 4 unit-edge triangles
        expect = 3 * (np.sqrt(3.0) / 4.0) / 3.0
        assert tetra.vertex_areas() == pytest.approx(np.full(4, expect), abs=1e-12)

    @pytest.mark.parametrize("name", ["tetra", "kite", "strip", "ico642", "bumpy642"])
    def test_triangle_areas_match_heron(self, name, spectral_meshes):
        mesh = spectral_meshes[name]
        impl = float(mesh.triangle_areas().sum())
        ref = orc.total_area_heron(mesh.vertices, mesh.triangles)
        assert impl == pytest.approx(ref, rel=1e-12)

    def test_ico642_area_pin(self, ico642):
        assert ico642.total_area() == pytest.approx(ICO642_AREA, rel=1e-12)

    def test_vertex_areas_sum_to_total(self, ico642):
        assert float(ico642.vertex_areas().sum()) == pytest.approx(
            ico642.total_area(), rel=1e-12
        )


class TestEdges:
    def test_tetra_edge_count(self, tetra):
        assert len(tetra.edges()) == 6

    def test_ico642_euler_formula(self, ico642):
        # closed genus-0 surface: E = V + F - 2
        assert len(ico642.edges()) == 642 + 1280 - 2

    def test_edge_graph_symmetric_euclidean(self, kite):
        g = kite.edge_graph().toarray()
        assert np.array_equal(g, g.T)
        i, j = 0, 1
        expect = np.linalg.norm(kite.vertices[i] - kite.vertices[j])
        assert g[i, j] == pytest.approx(expect, rel=1e-15)

    @settings(deadline=None, max_examples=40)
    @given(faces=st.lists(st.lists(st.integers(0, 30), min_size=3, max_size=3, unique=True),
                          min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1))
    @example(faces=[[0, 1, 2]], seed=0)
    def test_edges_equal_the_row_unique_pairs(self, faces, seed):
        # relabel so every vertex is used; random positions are in general position
        t = np.unique(np.array(faces, dtype=np.int64).reshape(-1), return_inverse=True)[1]
        t = t.reshape(-1, 3)
        v = np.random.default_rng(seed).normal(size=(int(t.max(initial=-1)) + 1, 3))
        mesh = TriMesh(v, t)
        raw = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        raw.sort(axis=1)
        edges = mesh.edges()
        assert edges.dtype == np.int64
        assert np.array_equal(edges, np.unique(raw, axis=0))

    def test_edge_graph_is_built_once(self, bumpy642):
        mesh = TriMesh(bumpy642.vertices, bumpy642.triangles)
        assert mesh.edge_graph() is mesh.edge_graph()

    def test_arrays_cannot_be_reassigned(self, bumpy642):
        mesh = TriMesh(bumpy642.vertices, bumpy642.triangles)
        g = mesh.edge_graph()
        with pytest.raises(AttributeError):
            mesh.vertices = 2.0 * mesh.vertices
        with pytest.raises(AttributeError):
            mesh.triangles = mesh.triangles[:, ::-1].copy()
        assert mesh.edge_graph() is g
        assert np.array_equal(mesh.vertices, bumpy642.vertices)
        assert np.array_equal(mesh.triangles, bumpy642.triangles)

    def test_edge_graph_rejects_in_place_edits(self, bumpy642):
        mesh = TriMesh(bumpy642.vertices, bumpy642.triangles)
        g = mesh.edge_graph()
        before = graph_geodesics(mesh, [0, 9])
        for part in (g.data, g.indices, g.indptr):
            with pytest.raises(ValueError, match="read-only"):
                part *= 2
        g.setdiag(1.0)  # no diagonal yet: replaces the arrays instead of writing them
        assert mesh.edge_graph() is not g
        assert np.array_equal(graph_geodesics(mesh, [0, 9]), before)

    def test_geometry_cannot_change_under_the_memo(self, bumpy642):
        v, t = bumpy642.vertices.copy(), bumpy642.triangles.copy()
        mesh = TriMesh(v, t)
        before = graph_geodesics(mesh, [0, 9])
        for arr in (mesh.vertices, mesh.triangles):
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2
        v *= 2  # the caller's arrays are not the mesh's
        t[:] = t[:, ::-1]
        assert np.array_equal(mesh.vertices, bumpy642.vertices)
        assert np.array_equal(mesh.triangles, bumpy642.triangles)
        assert np.array_equal(graph_geodesics(mesh, [0, 9]), before)
        assert np.array_equal(graph_geodesics(TriMesh(mesh.vertices, mesh.triangles), [0, 9]),
                              before)


class TestGeodesics:
    def test_strip_distances_pin(self, strip):
        d = graph_geodesics(strip, [0])[0]
        assert d == pytest.approx(STRIP_DISTS, abs=1e-12)
        assert d[3] == pytest.approx(np.sqrt(65.0), abs=1e-12)

    def test_ico642_antipodal_pin(self, ico642):
        d = graph_geodesics(ico642, [0])[0]
        anti = int(np.argmin(np.linalg.norm(ico642.vertices + ico642.vertices[0], axis=1)))
        assert anti == ICO642_ANTIPODE
        assert d[anti] == pytest.approx(ICO642_ANTIPODAL_DIST, rel=1e-12)

    @pytest.mark.parametrize("source", [0, 37, 161])
    def test_matches_heapq_oracle(self, ico162, source):
        impl = graph_geodesics(ico162, [source])[0]
        ref = orc.dijkstra_ref(ico162.vertices, ico162.triangles, source)
        assert impl == pytest.approx(ref, rel=1e-12)

    def test_all_pairs_symmetric(self, strip):
        d = graph_geodesics(strip)
        assert d.shape == (4, 4)
        assert d == pytest.approx(d.T, rel=1e-12)
        assert np.all(np.diag(d) == 0.0)

    @settings(deadline=None, max_examples=10)
    @given(name=st.sampled_from(["bumpy", "ico162", "disconnected"]),
           subdivisions=st.integers(1, 3), amplitude=st.floats(0.0, 0.3))
    def test_directed_search_equals_undirected(self, ico162, disconnected, name,
                                               subdivisions, amplitude):
        mesh = (synth.bumpy_sphere(subdivisions, amplitude) if name == "bumpy"
                else {"ico162": ico162, "disconnected": disconnected}[name])
        g = mesh.edge_graph()
        directed = dijkstra(g, directed=True)
        assert np.array_equal(directed, dijkstra(g, directed=False))
        assert np.array_equal(graph_geodesics(mesh), directed)

    # 72 sources run in blocks into a mapped table
    @pytest.mark.parametrize("sources", [[0, 5, 77], list(range(0, 642, 9))])
    def test_limit_keeps_every_distance_within_it(self, bumpy642, sources):
        full = graph_geodesics(bumpy642, sources)
        assert np.array_equal(full, dijkstra(bumpy642.edge_graph(), indices=sources))
        for limit in (0.0, 0.3, float(np.median(full)), float(full.max())):
            cut = graph_geodesics(bumpy642, sources, limit=limit)
            within = full <= limit
            assert np.array_equal(cut[within], full[within])
            assert np.isinf(cut[~within]).all()
            assert cut.flags.writeable

    @pytest.mark.skipif(not Path("/proc/self/statm").is_file(),
                        reason="reads resident memory from /proc/self/statm")
    def test_freed_table_leaves_no_resident_pages(self, bumpy642):
        def resident():
            return int(Path("/proc/self/statm").read_text().split()[1]) * mmap.PAGESIZE

        graph_geodesics(bumpy642)  # a larger table first: a malloc heap would keep its pages
        table = graph_geodesics(bumpy642, np.arange(500))
        alive = resident()
        nbytes = table.nbytes
        del table
        assert alive - resident() >= 0.9 * nbytes

    def test_disconnected_gives_inf(self, disconnected):
        d = graph_geodesics(disconnected, [0])[0]
        assert np.isinf(d[3:]).all()
        assert np.isfinite(d[:3]).all()

    def test_source_out_of_range(self, tetra):
        with pytest.raises(IndexOutOfRange):
            graph_geodesics(tetra, [4])

    def test_empty_sources(self, tetra):
        assert graph_geodesics(tetra, []).shape == (0, 4)


class TestMeshIO:
    @pytest.mark.parametrize("ext", ["off", "obj", "ply"])
    def test_round_trip_exact(self, tmp_path, kite, ext):
        path = tmp_path / f"mesh.{ext}"
        save_mesh(kite, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, kite.vertices)
        assert np.array_equal(back.triangles, kite.triangles)

    @pytest.mark.parametrize("ext", ["off", "obj", "ply"])
    def test_save_is_deterministic(self, tmp_path, ico162, ext):
        p1 = tmp_path / f"a.{ext}"
        p2 = tmp_path / f"b.{ext}"
        save_mesh(ico162, p1)
        save_mesh(load_mesh(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_off_with_comments_and_blanks(self, tmp_path):
        text = (
            "OFF\n# a comment\n\n4 4 0\n"
            "0.0 0.0 0.0\n1.0 0.0 0.0\n0.5 0.8660254037844386 0.0\n"
            "0.5 0.28867513459481287 0.816496580927726\n"
            "3 0 1 2\n3 0 1 3\n3 1 2 3\n3 2 0 3\n"
        )
        path = tmp_path / "m.off"
        path.write_text(text)
        mesh = load_mesh(path)
        assert mesh.n_vertices == 4 and mesh.n_triangles == 4

    def test_obj_one_based_and_slash_tokens(self, tmp_path):
        text = (
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vn 0 0 1\n"
            "f 1/1/1 2/2/1 3/3/1\n"
        )
        path = tmp_path / "m.obj"
        path.write_text(text)
        mesh = load_mesh(path)
        assert np.array_equal(mesh.triangles, [[0, 1, 2]])

    def test_ply_ascii_parses(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\ncomment made by hand\n"
            "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        )
        path = tmp_path / "m.ply"
        path.write_text(text)
        mesh = load_mesh(path)
        assert mesh.n_vertices == 3 and mesh.n_triangles == 1

    def test_ply_binary_rejected(self, tmp_path):
        text = (
            "ply\nformat binary_little_endian 1.0\n"
            "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
            "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        )
        path = tmp_path / "m.ply"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_mesh(path)

    def test_off_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "m.off"
        path.write_text("OFF\n5 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(ParseError):
            load_mesh(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_mesh(tmp_path / "nope.off")

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "m.stl"
        path.write_text("junk")
        with pytest.raises(ParseError):
            load_mesh(path)

    @settings(deadline=None, max_examples=30)
    @given(ext=st.sampled_from(["off", "obj", "ply"]),
           stretch=st.lists(st.floats(-1e-3, 1e-3), min_size=3, max_size=3))
    def test_float_round_trip_property(self, tmp_path_factory, ico162, ext, stretch):
        mesh = TriMesh(ico162.vertices * (1.0 + np.asarray(stretch)), ico162.triangles)
        path = tmp_path_factory.mktemp("mesh") / f"m.{ext}"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert back.vertices.tobytes() == mesh.vertices.tobytes()   # bit for bit
        assert np.array_equal(back.triangles, mesh.triangles)


def parses(monkeypatch, fmt="off"):
    """Record each call of the `fmt` parser, which load_mesh runs on a miss."""
    calls, original = [], mesh_module._PARSERS[fmt]

    def recorded(text, path):
        calls.append(path)
        return original(text, path)

    monkeypatch.setitem(mesh_module._PARSERS, fmt, recorded)
    return calls


def same_mesh(a, b) -> bool:
    return (a.vertices.tobytes() == b.vertices.tobytes()
            and np.array_equal(a.triangles, b.triangles))


class TestMeshCache:
    """load_mesh parses each file text once while it is among the most
    recently loaded, whatever the path."""

    def test_same_bytes_at_two_paths_are_one_mesh(self, tmp_path, ico162, monkeypatch):
        calls = parses(monkeypatch)
        save_mesh(ico162, tmp_path / "a.off")
        (tmp_path / "b.off").write_bytes((tmp_path / "a.off").read_bytes())
        first = load_mesh(tmp_path / "a.off")
        assert load_mesh(tmp_path / "b.off") is first
        assert load_mesh(str(tmp_path / "a.off")) is first
        assert calls == [tmp_path / "a.off"]
        assert first.edge_graph() is load_mesh(tmp_path / "b.off").edge_graph()

    def test_the_format_is_part_of_the_key(self, tmp_path, ico162):
        save_mesh(ico162, tmp_path / "a.off")
        text = (tmp_path / "a.off").read_text()
        (tmp_path / "a.ply").write_text(text)   # OFF text under a PLY name
        load_mesh(tmp_path / "a.off")
        with pytest.raises(ParseError, match="a.ply"):
            load_mesh(tmp_path / "a.ply")

    def test_a_rewritten_file_misses_and_equals_a_cold_parse(self, tmp_path, ico162):
        path = tmp_path / "m.off"
        save_mesh(ico162, path)
        before = load_mesh(path)
        save_mesh(synth.bumpy_sphere(2), path)   # same path and vertex count
        after = load_mesh(path)
        assert after is not before and not same_mesh(after, before)
        cold = mesh_module._parse_off(path.read_text(), path)
        assert same_mesh(after, cold)
        assert np.array_equal(after.edge_graph().toarray(), cold.edge_graph().toarray())

    def test_a_parse_failure_is_not_cached(self, tmp_path, monkeypatch):
        calls = parses(monkeypatch)
        bad_text = "OFF\n5 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        for name in ("a.off", "b.off", "a.off"):
            (tmp_path / name).write_text(bad_text)
            with pytest.raises(ParseError, match=name):   # each error names its own file
                load_mesh(tmp_path / name)
        assert len(calls) == 3 and len(mesh_module._meshes) == 0

    def test_size_is_bounded_and_least_recently_used_goes_first(self, tmp_path,
                                                                monkeypatch):
        calls = parses(monkeypatch)
        for i, mesh in enumerate((synth.tetrahedron(), synth.kite_45(), synth.icosphere(1))):
            save_mesh(mesh, tmp_path / f"{i}.off")
        for i in (0, 1, 0, 2, 0, 1):
            load_mesh(tmp_path / f"{i}.off")
            assert len(mesh_module._meshes) <= mesh_module.MESH_CACHE_SIZE
        # 2 evicts 1 (0 was used since), so only the last load of 1 parses again
        assert [p.name for p in calls] == ["0.off", "1.off", "2.off", "1.off"]

    def test_threads_share_the_cache_safely(self, tmp_path):
        meshes = [synth.tetrahedron(), synth.kite_45(), synth.square_diagonal()]
        for i, mesh in enumerate(meshes):
            save_mesh(mesh, tmp_path / f"{i}.off")
        errors, wrong = [], []

        def work(offset):
            try:
                for i in range(1000):
                    j = (i + offset) % 3
                    if not same_mesh(load_mesh(tmp_path / f"{j}.off"), meshes[j]):
                        wrong.append(j)
            except Exception as exc:   # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert (errors, wrong) == ([], [])
        assert len(mesh_module._meshes) <= mesh_module.MESH_CACHE_SIZE


class TestMatrixIO:
    """The one text-matrix format: headerless rows of indices, read by
    read_table and written by write_table, behind correspondence and
    landmark files."""

    def test_round_trip_exact(self, tmp_path):
        a = np.array([[0, 2**63 - 1], [7, 3], [7, 3]])
        write_table(a, tmp_path / "l.txt")
        assert np.array_equal(read_table(tmp_path / "l.txt", "landmark", 2), a)
        src, dst = load_landmark_pairs(tmp_path / "l.txt")
        assert (src.tolist(), dst.tolist()) == ([0, 7, 7], [2**63 - 1, 3, 3])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(ParseError, match=r"l\.txt:2: expected 2 values, got 1"):
            load_landmark_pairs(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError, match="empty correspondence file"):
            load_correspondence(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("1 fish\n")
        with pytest.raises(ParseError, match="expected integers"):
            load_landmark_pairs(path)

    def test_header_line_is_a_bad_row(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("PAIRS 2\n1 0\n0 1\n")
        with pytest.raises(ParseError, match=r"l\.txt:1: expected integers"):
            load_landmark_pairs(path)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 1024])
    def test_chunked_conversion(self, tmp_path, monkeypatch, ico162, chunk):
        monkeypatch.setattr(mesh_module, "_TABLE_CHUNK_ROWS", chunk)
        idx = np.array([5, 0, 2**63 - 1, 3, 3, 1, 4])
        save_correspondence(idx, tmp_path / "c.txt")
        back = load_correspondence(tmp_path / "c.txt")
        assert back.dtype == idx.dtype and np.array_equal(back, idx)
        save_mesh(ico162, tmp_path / "m.off")
        mesh = load_mesh(tmp_path / "m.off")
        assert np.array_equal(mesh.vertices, ico162.vertices)
        assert np.array_equal(mesh.triangles, ico162.triangles)

        def spoil(path, lineno, line):
            lines = path.read_text().splitlines()
            lines[lineno - 1] = line
            path.write_text("\n".join(lines) + "\n")

        spoil(tmp_path / "c.txt", 6, "fish")
        with pytest.raises(ParseError, match=r"c\.txt:6: expected integers"):
            load_correspondence(tmp_path / "c.txt")
        spoil(tmp_path / "m.off", 8, "1 fish 2")   # the sixth vertex row
        with pytest.raises(ParseError, match=r"m\.off:8: expected numbers"):
            load_mesh(tmp_path / "m.off")

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from([1, 2]), st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=8))
    def test_round_trip_property(self, tmp_path_factory, width, indices):
        a = np.asarray(indices[:len(indices) // width * width]).reshape(-1, width)
        path = tmp_path_factory.mktemp("table") / "t.txt"
        write_table(a, path)
        back = read_table(path, "index", width)
        assert back.dtype == np.int64 and np.array_equal(back, a)


class TestCorrespondenceIO:
    def test_round_trip(self, tmp_path):
        idx = np.array([4, 0, 0, 17, 2])
        path = tmp_path / "c.txt"
        save_correspondence(idx, path)
        assert np.array_equal(load_correspondence(path), idx)

    @pytest.mark.parametrize("indices, error", [
        ([-1, 2], IndexOutOfRange), ([1.7, 2], LengthMismatch), ([[1], [2]], LengthMismatch),
        (np.array([2**63, 1], dtype=np.uint64), IndexOutOfRange)])
    def test_save_writes_only_what_load_reads(self, tmp_path, indices, error):
        """Checked by mesh._vertex_indices before anything is written."""
        path = tmp_path / "c.txt"
        with pytest.raises(error):
            save_correspondence(indices, path)
        assert not path.exists()

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("3\n-1\n")
        with pytest.raises(ParseError):
            load_correspondence(path)

    def test_two_tokens_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("3 4\n")
        with pytest.raises(ParseError):
            load_correspondence(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n1\n2\n")
        assert np.array_equal(load_correspondence(path), [1, 2])


class TestReaderFuzz:
    @pytest.mark.parametrize("reader", sorted(READERS))
    @settings(deadline=None, max_examples=60)
    @given(st.one_of(
        st.binary(max_size=64),
        st.text(max_size=64).map(str.encode),
        st.builds(lambda head, body: (head + body).encode(),
                  st.sampled_from(FUZZ_PREFIXES),
                  st.text(alphabet="0123456789 -+.e#x\n", max_size=80)),
    ))
    def test_readers_raise_only_fmap_errors(self, tmp_path_factory, reader, data):
        ext, read = READERS[reader]
        path = tmp_path_factory.mktemp("fuzz") / f"f.{ext}"
        path.write_bytes(data)
        try:
            read(path)
        except FmapError:
            pass


class TestSynth:
    def test_permuted_copy_geometry(self, bumpy642):
        copy, perm = synth.permuted_copy(bumpy642, seed=11)
        assert np.array_equal(copy.vertices, bumpy642.vertices[perm])
        assert copy.total_area() == pytest.approx(bumpy642.total_area(), rel=1e-12)
        assert sorted(perm) == list(range(642))

    def test_permuted_copy_seed_determinism(self, ico162):
        c1, p1 = synth.permuted_copy(ico162, seed=5)
        c2, p2 = synth.permuted_copy(ico162, seed=5)
        assert np.array_equal(p1, p2)
        assert np.array_equal(c1.triangles, c2.triangles)

    def test_icosphere_vertices_on_sphere(self, ico642):
        r = np.linalg.norm(ico642.vertices, axis=1)
        assert r == pytest.approx(np.ones(642), abs=1e-12)

    def test_icosphere_subdivision_counts(self):
        assert synth.icosphere(0).n_vertices == 12
        assert synth.icosphere(1).n_vertices == 42
        assert synth.icosphere(2).n_vertices == 162

    def test_bumpy_sphere_brings_radius_variation(self, bumpy642):
        r = np.linalg.norm(bumpy642.vertices, axis=1)
        assert r.max() - r.min() > 0.05


# Every public function that takes vertex indices of ico162, called with
# `idx` in their place and well-formed arguments elsewhere (k = 20), and
# the valid indices each fault is made from.
_ALL = np.arange(162)
INDEX_TAKERS = {
    "TriMesh": (lambda m, b, idx: TriMesh(m.vertices, idx.reshape(-1, 3)), None),
    "graph_geodesics": (lambda m, b, idx: graph_geodesics(m, idx), [0, 5, 9]),
    "descriptor_landmarks": (lambda m, b, idx: descriptor_landmarks(b, idx, 0.1), [0, 5, 9]),
    "geodesic_error_prediction": (lambda m, b, idx: geodesic_error(idx, _ALL, m), _ALL),
    "geodesic_error_ground_truth": (lambda m, b, idx: geodesic_error(_ALL, idx, m), _ALL),
    "properness_project": (lambda m, b, idx: properness_project(idx, b, b), _ALL),
    "energy_terms": (lambda m, b, idx: energy_terms(idx, b.phi, b.phi, b), _ALL),
    "measure_properness": (
        lambda m, b, idx: measure_properness(np.eye(20), b, b, adjoint=idx), _ALL),
    "measure_basis_aligning": (
        lambda m, b, idx: measure_basis_aligning(np.eye(20), b, b, adjoint=idx), _ALL),
}


def _second(idx, value):
    """idx with its second entry set to value."""
    idx = idx.copy()
    idx[1] = value
    return idx


# fault -> (how it is made from valid indices, the error it must raise)
INDEX_FAULTS = {
    "n": (lambda idx: _second(idx, 162), IndexOutOfRange),
    "negative": (lambda idx: _second(idx, -1), IndexOutOfRange),
    "float": (lambda idx: idx.astype(np.float64), LengthMismatch),
    "2d": (lambda idx: idx[:, None], LengthMismatch),
}
# a triangle array is (m, 3) by definition, so TriMesh has no 2-D fault
INDEX_CASES = [(name, fault) for name in sorted(INDEX_TAKERS) for fault in sorted(INDEX_FAULTS)
               if (name, fault) != ("TriMesh", "2d")]


@pytest.fixture(scope="module")
def ico162_basis20(ico162):
    return eigenbasis(build_laplacian(ico162), 20)


@pytest.mark.parametrize("name, fault", INDEX_CASES)
def test_a_bad_vertex_index_is_index_out_of_range(ico162, ico162_basis20, name, fault):
    """One rule for vertex indices, mesh._vertex_indices: an index outside
    [0, n) is IndexOutOfRange, an array that is not 1-D integers is
    LengthMismatch."""
    take, good = INDEX_TAKERS[name]
    make, error = INDEX_FAULTS[fault]
    good = ico162.triangles.ravel() if good is None else np.asarray(good)
    with pytest.raises(error, match="index out of range" if error is IndexOutOfRange else None):
        take(ico162, ico162_basis20, make(good))
