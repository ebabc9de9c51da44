"""Geodesic-error protocol, accuracy curves, and the error report format."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fmapkit import evaluate, mesh as mesh_module, synth
from fmapkit.cli import main
from fmapkit.errors import DisconnectedMesh, IndexOutOfRange, LengthMismatch
from fmapkit.evaluate import accuracy_curve, geodesic_error, write_error_report
from fmapkit.mesh import TriMesh, graph_geodesics, save_correspondence, save_mesh

# swapping two adjacent unit-edge vertices on the regular tetrahedron:
# error = 100 * edge / sqrt(total area) = 100 / 3**0.25
TETRA_SWAP_ERR = 75.98356856515926

# Share of entries the "25%-wrong" maps below send to a random vertex.
WRONG_SHARE = 0.25


def dense_errors(pred, gt, mesh):
    """Reference errors from the full all-pairs table, indexed at (gt_i, pred_i)."""
    table = graph_geodesics(mesh)
    return table[np.asarray(gt), np.asarray(pred)] / np.sqrt(mesh.total_area()) * 100.0


def disconnected_message(pred, gt, reference):
    """The DisconnectedMesh message for the lowest entry the reference finds unreachable."""
    bad = int(np.nonzero(np.isinf(reference))[0][0])
    return f"vertices {pred[bad]} and {gt[bad]} lie in different components"


def wrong_map(gt, n, seed, share=WRONG_SHARE):
    """gt with `share` of its entries (on average) sent to random vertices."""
    rng = np.random.default_rng(seed)
    pred = np.array(gt, copy=True)
    wrong = rng.random(len(pred)) < share
    pred[wrong] = rng.integers(0, n, size=int(wrong.sum()))
    return pred


def near_map(gt, mesh, seed, hit):
    """gt with each miss (1 - hit of the entries) a random walk of 1 to 3 edges away."""
    rng = np.random.default_rng(seed)
    g = mesh.edge_graph()
    pred, hops = np.array(gt, copy=True), rng.integers(1, 4, len(gt))
    hops[rng.random(len(gt)) < hit] = 0
    for step in range(3):
        v = pred[hops > step]
        degree = g.indptr[v + 1] - g.indptr[v]
        pred[hops > step] = g.indices[g.indptr[v] + (rng.random(v.size) * degree).astype(int)]
    return pred


def two_spheres(mesh):
    """Two disjoint copies of mesh, the second shifted clear of the first."""
    n = mesh.n_vertices
    return TriMesh(np.vstack([mesh.vertices, mesh.vertices + 10.0]),
                   np.vstack([mesh.triangles, mesh.triangles + n]))


def eval_peak(pair):
    """Traced peak bytes of geodesic_error on a 25%-wrong map, edge graph build included."""
    mesh = pair.mesh1
    pred = wrong_map(pair.perm, mesh.n_vertices, seed=22)
    geodesic_error(pred, pair.perm, mesh)  # warm every lazy import first
    fresh = TriMesh(mesh.vertices, mesh.triangles)  # no memoised edge graph yet
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        geodesic_error(pred, pair.perm, fresh)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def geodesic_calls(monkeypatch):
    """(sources, limit) of every graph_geodesics call geodesic_error makes."""
    calls = []

    def counting(mesh, sources=None, limit=np.inf):
        calls.append((np.array(sources), limit))
        return graph_geodesics(mesh, sources, limit=limit)

    monkeypatch.setattr(evaluate, "graph_geodesics", counting)
    return calls


class TestGeodesicError:
    def test_identity_is_zero(self, ico162):
        idx = np.arange(162)
        assert geodesic_error(idx, idx, ico162).max() == 0.0

    def test_hand_computed_single_swap(self, tetra):
        e = geodesic_error([1, 0, 2, 3], [0, 1, 2, 3], tetra)
        assert e.tolist() == pytest.approx(
            [TETRA_SWAP_ERR, TETRA_SWAP_ERR, 0.0, 0.0], rel=1e-12
        )

    def test_scale_invariant(self, tetra, pair):
        pred = np.random.default_rng(6).integers(0, 642, 642)
        base = geodesic_error(pred, pair.perm, pair.mesh1)
        doubled = TriMesh(2.0 * pair.mesh1.vertices, pair.mesh1.triangles)
        scaled = geodesic_error(pred, pair.perm, doubled)
        assert np.abs(scaled - base).max() <= 1e-9 * base.max()

    def test_accepts_hard_point_map(self, tetra):
        for pm in (np.array([1, 0, 2, 3]), np.array([1, 0, 2, 3], dtype=np.uint8), [1, 0, 2, 3]):
            e = geodesic_error(pm, np.arange(4), tetra)
            assert e[0] == pytest.approx(TETRA_SWAP_ERR, rel=1e-12)

    def test_soft_map_rejected(self, tetra):
        with pytest.raises(LengthMismatch):
            geodesic_error(np.full((4, 4), 0.25), np.arange(4), tetra)
        # nor any 2-D array: raveling would score a (2, 2) one as 4 entries
        with pytest.raises(LengthMismatch):
            geodesic_error(np.array([[1, 0], [2, 3]]), np.arange(4), tetra)

    def test_float_prediction_rejected(self, tetra):
        # int64 truncation would score gt + 0.9 as exact everywhere
        with pytest.raises(LengthMismatch):
            geodesic_error(np.arange(4) + 0.9, np.arange(4), tetra)
        with pytest.raises(LengthMismatch):
            geodesic_error(np.arange(4), np.arange(4.0), tetra)

    def test_length_mismatch(self, tetra):
        with pytest.raises(LengthMismatch):
            geodesic_error([0, 1], [0, 1, 2], tetra)

    def test_out_of_range_index(self, tetra):
        with pytest.raises(IndexOutOfRange):
            geodesic_error([0, 1, 2, 4], [0, 1, 2, 3], tetra)

    def test_disconnected_pair_raises(self, disconnected):
        pred = [3, 4, 5, 0, 1, 2]  # every pair crosses the gap
        with pytest.raises(DisconnectedMesh):
            geodesic_error(pred, np.arange(6), disconnected)

    def test_disconnected_mesh_ok_within_component(self, disconnected):
        e = geodesic_error([1, 0, 2, 3, 4, 5], np.arange(6), disconnected)
        assert np.isfinite(e).all()


class TestBlockedGeodesics:
    """geodesic_error skips exact hits and runs Dijkstra in capped groups, each
    searching only up to a landmark bound; the values stay those of the full
    table."""

    @pytest.mark.parametrize("rows", [1, 3, None])  # None: the default group size
    @settings(deadline=None, max_examples=12)
    @given(name=st.sampled_from(["ico162", "mesh1", "disconnected", "two_spheres"]),
           seed=st.integers(0, 2**32 - 1), hit=st.floats(0.0, 1.0), near=st.booleans())
    @example(name="mesh1", seed=0, hit=0.0, near=False)
    @example(name="mesh1", seed=1, hit=1.0, near=False)
    @example(name="disconnected", seed=2, hit=0.0, near=False)
    @example(name="mesh1", seed=3, hit=0.0, near=True)  # misses 1-3 edges off
    @example(name="two_spheres", seed=4, hit=0.5, near=True)
    def test_bit_equal_to_dense_table(self, ico162, pair, disconnected, rows,
                                      name, seed, hit, near):
        mesh = {"ico162": ico162, "mesh1": pair.mesh1, "disconnected": disconnected,
                "two_spheres": two_spheres(ico162)}[name]
        n = mesh.n_vertices
        rng = np.random.default_rng(seed)
        gt = rng.integers(0, n, n)
        if near:
            pred = near_map(gt, mesh, seed, hit)
        else:
            pred = np.where(rng.random(n) < hit, gt, rng.integers(0, n, n))
        reference = dense_errors(pred, gt, mesh)
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(mesh_module, "_GEODESIC_BLOCK_ROWS", rows)
            if np.isinf(reference).any():
                with pytest.raises(DisconnectedMesh) as info:
                    geodesic_error(pred, gt, mesh)
                assert str(info.value) == disconnected_message(pred, gt, reference)
            else:
                assert np.array_equal(geodesic_error(pred, gt, mesh), reference)

    def test_identity_runs_no_dijkstra(self, pair, geodesic_calls):
        idx = np.arange(pair.mesh1.n_vertices)
        assert geodesic_error(idx, idx, pair.mesh1).max() == 0.0
        assert geodesic_calls == []

    @pytest.mark.parametrize("rows", [7, None])
    def test_sources_are_the_unique_missed_ground_truth(self, pair, geodesic_calls,
                                                        monkeypatch, rows):
        n = pair.mesh1.n_vertices
        if rows is not None:
            monkeypatch.setattr(mesh_module, "_GEODESIC_BLOCK_ROWS", rows)
        pred = wrong_map(pair.perm, n, seed=21)
        geodesic_error(pred, pair.perm, pair.mesh1)
        expected = np.unique(pair.perm[pred != pair.perm])
        assert expected.size > mesh_module._GEODESIC_BLOCK_ROWS
        # the landmark searches: the leading one-source unbounded calls
        k = next(i for i, (sources, limit) in enumerate(geodesic_calls)
                 if sources.size > 1 or np.isfinite(limit))
        landmarks, groups = geodesic_calls[:k], geodesic_calls[k:]
        assert 1 <= len(landmarks) <= evaluate._LANDMARKS
        assert landmarks[0][0][0] == 0   # seeded from the mesh alone
        searched = np.concatenate([sources for sources, _ in groups])
        assert np.array_equal(np.sort(searched), expected)  # each one exactly once
        assert all(len(sources) <= mesh_module._GEODESIC_BLOCK_ROWS for sources, _ in groups)
        assert all(np.isfinite(limit) for _, limit in groups)  # no re-search here

    def test_landmark_rows_are_searched_once_per_mesh(self, pair, geodesic_calls):
        n = pair.mesh1.n_vertices
        pred = wrong_map(pair.perm, n, seed=21)
        first = geodesic_error(pred, pair.perm, pair.mesh1)
        landmark_calls = geodesic_calls[:evaluate._LANDMARKS]
        assert all(s.size == 1 and np.isinf(limit) for s, limit in landmark_calls)
        geodesic_calls.clear()
        assert np.array_equal(geodesic_error(pred, pair.perm, pair.mesh1), first)
        rows = evaluate._landmarks(pair.mesh1)
        assert rows.shape == (evaluate._LANDMARKS, n) and not rows.flags.writeable
        assert all(s.size > 1 or np.isfinite(limit) for s, limit in geodesic_calls)
        assert evaluate._landmarks(pair.mesh1) is rows

    def test_two_meshes_never_share_landmark_rows(self, pair):
        n = pair.mesh1.n_vertices
        pred = wrong_map(pair.perm, n, seed=21)
        meshes = [pair.mesh1, TriMesh(pair.mesh1.vertices * [1.0, 2.0, 0.5],
                                      pair.mesh1.triangles)]
        for mesh in meshes + meshes[::-1]:
            assert np.array_equal(geodesic_error(pred, pair.perm, mesh),
                                  dense_errors(pred, pair.perm, mesh))
        a, b = (evaluate._landmarks(mesh) for mesh in meshes)
        assert not np.shares_memory(a, b) and not np.array_equal(a, b)
        assert np.array_equal(a[0], graph_geodesics(meshes[0], [0])[0])
        assert np.array_equal(b[0], graph_geodesics(meshes[1], [0])[0])
        dead, kept = weakref.ref(b), weakref.ref(a)
        del meshes[1], a, b
        gc.collect()
        assert dead() is None and kept() is not None   # each dies with its own mesh

    def test_threads_share_one_mesh_safely(self, pair, geodesic_calls):
        mesh = TriMesh(pair.mesh1.vertices, pair.mesh1.triangles)   # no rows yet
        preds = [wrong_map(pair.perm, mesh.n_vertices, seed=s) for s in range(4)]
        results, errors = [None] * 4, []

        def work(t):
            try:
                for _ in range(3):
                    results[t] = geodesic_error(preds[t], pair.perm, mesh)
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
        assert not any(t.is_alive() for t in threads) and errors == []
        threaded = len(geodesic_calls)
        geodesic_calls.clear()
        for pred, result in zip(preds, results):
            assert np.array_equal(result, geodesic_error(pred, pair.perm, mesh))
            assert np.array_equal(result, dense_errors(pred, pair.perm, mesh))
        # the landmarks were searched once among all threads
        assert threaded == evaluate._LANDMARKS + 3 * len(geodesic_calls)

    def test_few_sources_run_one_unbounded_pass(self, pair, geodesic_calls):
        n = pair.mesh1.n_vertices
        pred = pair.perm.copy()
        rows = mesh_module._GEODESIC_BLOCK_ROWS
        pred[:rows] = pred[n - rows:]
        geodesic_error(pred, pair.perm, pair.mesh1)
        [(sources, limit)] = geodesic_calls
        assert np.array_equal(sources, np.unique(pair.perm[:rows]))
        assert np.isinf(limit)

    @pytest.mark.parametrize("near", [False, True])
    def test_cut_off_misses_are_searched_again(self, pair, monkeypatch, near):
        mesh, n = pair.mesh1, pair.mesh1.n_vertices
        calls = []

        def halving(mesh, sources=None, limit=np.inf):
            calls.append(limit)
            return graph_geodesics(mesh, sources, limit=limit / 2)

        monkeypatch.setattr(evaluate, "graph_geodesics", halving)
        pred = near_map(pair.perm, mesh, 24, 0.75) if near else wrong_map(pair.perm, n, 24)
        errors = geodesic_error(pred, pair.perm, mesh)
        assert np.array_equal(errors, dense_errors(pred, pair.perm, mesh))
        assert np.isfinite(calls).any() and np.isinf(calls[-1])

    def test_peak_memory_is_a_block_not_a_table(self, pair):
        n = pair.mesh1.n_vertices
        # 50.4 * n * 8 bytes measured (the total-area temporaries dominate)
        rows = mesh_module._GEODESIC_BLOCK_ROWS
        assert eval_peak(pair) < 1.5 * (rows + evaluate._LANDMARKS) * n * 8

    def test_peak_memory_under_a_block_byte_cap(self, pair, monkeypatch):
        n = pair.mesh1.n_vertices
        monkeypatch.setattr(mesh_module, "_GEODESIC_BLOCK_ROWS", 8)  # groups of 8 sources
        assert eval_peak(pair) < 0.1 * n * n * 8


class TestEvalCliBytes:
    """`fmapkit eval` writes the same CSV bytes as the full-table reference."""

    @pytest.fixture(scope="class")
    def bumpy_pair(self, tmp_path_factory):
        src = synth.bumpy_sphere(3, 0.12)
        dst, gt = synth.permuted_copy(synth.bumpy_sphere(3, 0.18), seed=5)
        root = tmp_path_factory.mktemp("evalbytes")
        save_mesh(src, root / "src.off")
        save_mesh(dst, root / "dst.off")
        save_correspondence(gt, root / "gt.txt")
        assert main(["match", "--src", str(root / "src.off"), "--dst", str(root / "dst.off"),
                     "--out", str(root / "matched.txt")]) == 0
        save_correspondence(wrong_map(gt, src.n_vertices, seed=23), root / "wrong.txt")
        return root, src, gt

    @pytest.mark.parametrize("pred_file", ["matched.txt", "wrong.txt"])
    def test_csv_equals_dense_reference(self, bumpy_pair, tmp_path, capsys, pred_file):
        root, src, gt = bumpy_pair
        pred = np.loadtxt(root / pred_file, dtype=np.int64)
        assert 0 < np.count_nonzero(pred != gt) < len(gt)
        reference = dense_errors(pred, gt, src)
        write_error_report(reference, tmp_path / "reference.csv")
        capsys.readouterr()
        assert main(["eval", "--pred", str(root / pred_file), "--gt", str(root / "gt.txt"),
                     "--mesh", str(root / "src.off"), "--out", str(tmp_path / "errors.csv")]) == 0
        assert capsys.readouterr().out == f"mean={reference.mean():.6f}\n"
        assert (tmp_path / "errors.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_cold_and_warm_runs_write_the_same_bytes(self, bumpy_pair, tmp_path, capsys,
                                                      geodesic_calls):
        root, _, _ = bumpy_pair
        args = ["eval", "--pred", str(root / "wrong.txt"), "--gt", str(root / "gt.txt"),
                "--mesh", str(root / "src.off"), "--out"]
        calls = []
        for name in ("cold.csv", "warm.csv"):
            assert main(args + [str(tmp_path / name)]) == 0
            calls.append(geodesic_calls[:])
            geodesic_calls.clear()
        # the warm run makes the cold run's searches but the landmark ones
        searches = [[(s.tolist(), limit) for s, limit in run] for run in calls]
        assert searches[0][evaluate._LANDMARKS:] == searches[1]
        cold, warm = capsys.readouterr().out.splitlines()
        assert cold == warm
        assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


class TestAccuracyCurve:
    def test_endpoints_and_monotonicity(self):
        errors = [0.0, 1.0, 2.0, 3.0]
        ts = np.linspace(0.0, 3.0, 7)
        curve = accuracy_curve(errors, ts)
        assert curve[0] == 0.25  # only the exact hit
        assert curve[-1] == 1.0
        assert np.all(np.diff(curve) >= 0)

    def test_hand_values(self):
        curve = accuracy_curve([0.5, 1.5, 2.5], [1.0, 2.0])
        assert curve.tolist() == [pytest.approx(1 / 3), pytest.approx(2 / 3)]

    def test_empty_errors_raise(self):
        with pytest.raises(LengthMismatch):
            accuracy_curve([], [1.0])


class TestErrorReport:
    def test_golden_text(self, tmp_path):
        path = tmp_path / "report.csv"
        write_error_report([0.0, 1.5], path)
        assert path.read_text() == (
            "vertex,error\n0,0.0\n1,1.5\nmean=0.750000\n"
        )

    def test_mean_line_matches(self, tmp_path):
        errors = np.random.default_rng(8).uniform(0, 10, 50)
        path = tmp_path / "report.csv"
        write_error_report(errors, path)
        last = path.read_text().strip().splitlines()[-1]
        assert last == f"mean={errors.mean():.6f}"
