"""End-to-end command-line tests: match, eval, diagnose, exit codes."""

import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
import threading
import weakref
from dataclasses import MISSING, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import fmapkit
from fmapkit import cli, diagnostics, evaluate, mesh as mesh_module, refine, spectral, synth
from fmapkit.cli import (
    DiagnoseConfig,
    MatchConfig,
    load_landmark_pairs,
    main,
    run_diagnose,
    run_match,
)
from fmapkit.errors import InvalidK
from fmapkit.fmap import convert_adjoint
from fmapkit.mesh import TriMesh, load_mesh, save_correspondence, save_mesh


@pytest.fixture(scope="module")
def small_pair(tmp_path_factory):
    """162-vertex sphere pair on disk, with a 30-pair landmark file."""
    mesh1 = synth.icosphere(2)
    mesh2, perm = synth.permuted_copy(mesh1, seed=19)
    inv = np.argsort(perm)
    root = tmp_path_factory.mktemp("cli162")
    src, dst = root / "src.off", root / "dst.off"
    save_mesh(mesh1, src)
    save_mesh(mesh2, dst)
    landmarks = root / "landmarks.txt"
    landmarks.write_text("".join(f"{i} {inv[i]}\n" for i in range(30)))
    return SimpleNamespace(src=src, dst=dst, landmarks=landmarks,
                           perm=perm, root=root)


PLY_TRIANGLE = (
    "ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\nproperty float y\n"
    "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
    "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 {k}\n"
)

# well-formed files of a mesh with no vertices and no triangles
EMPTY_MESHES = {
    "off": "OFF\n0 0 0\n",
    "ply": ("ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\nproperty float y\n"
            "property float z\nelement face 0\nproperty list uchar int vertex_indices\n"
            "end_header\n"),
}

# file name -> contents (None: a directory) of inputs every reader must
# reject with ParseError; "pred" is fed to eval, the rest to match as --src
MALFORMED = {
    "binary_pred": ("pred.txt", b"\xff\xfe\x00\x81\x00"),
    "directory_mesh": ("dir.off", None),
    "negative_off_count": ("neg.off", b"OFF\n-1 1 0\n"),
    "ply_face_token": ("tok.ply", PLY_TRIANGLE.format(n=3, k="x").encode()),
    "ply_element_count": ("count.ply", PLY_TRIANGLE.format(n="x", k=2).encode()),
}


def match_args(fx, out, **overrides):
    args = ["match", "--src", str(fx.src), "--dst", str(fx.dst),
            "--out", str(out), "--k", "25", "--desc", "stack",
            "--mu", "0", "--landmarks", str(fx.landmarks)]
    for flag, value in overrides.items():
        args += [f"--{flag}", str(value)]
    return args


def key_values(text):
    return dict(line.split("=", 1) for line in text.strip().splitlines() if "=" in line)


def held_bases() -> int:
    """Eigenbases the live meshes hold (one at most each)."""
    return sum(len(memo["basis"]) for memo in mesh_module._derived.values() if "basis" in memo)


def spy(monkeypatch, module, name):
    """Replace module.name by a pass-through that records, per call, how many
    eigenbases the live meshes held when it ran."""
    calls, original = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(held_bases())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


class TestMatch:
    def test_exact_recovery_and_outputs(self, small_pair, tmp_path, capsys):
        out = tmp_path / "map.txt"
        assert main(match_args(small_pair, out)) == 0
        printed = capsys.readouterr().out
        assert printed == f"wrote {out} (162 vertices) and {out}.report\n"
        pred = np.array([int(l) for l in out.read_text().split()])
        assert np.array_equal(pred, small_pair.perm)
        assert key_values((tmp_path / "map.txt.report").read_text())["rank_A"] == "25"

    def test_converters_agree_byte_for_byte(self, small_pair, tmp_path):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(match_args(small_pair, out_a, convert="adjoint")) == 0
        assert main(match_args(small_pair, out_b, convert="nn")) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_repeat_runs_are_byte_identical(self, small_pair, tmp_path):
        out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(match_args(small_pair, out_a))
        main(match_args(small_pair, out_b))
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.txt.report").read_bytes() \
            == (tmp_path / "b.txt.report").read_bytes()

    # with --convert nn the one adjoint conversion is the report's own
    @pytest.mark.parametrize("convert", ["adjoint", "nn"])
    def test_one_adjoint_conversion_per_map(self, small_pair, tmp_path, monkeypatch,
                                            convert):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return convert_adjoint(*args, **kwargs)

        monkeypatch.setattr(cli, "convert_adjoint", counted)
        monkeypatch.setattr(diagnostics, "convert_adjoint", counted)
        out = str(tmp_path / "map.txt")
        run_match(MatchConfig(src=str(small_pair.src), dst=str(small_pair.dst),
                              out=out, desc="stack", refine="proper-adjoint",
                              convert=convert))
        assert len(calls) == 1

    def test_refined_match_still_exact(self, small_pair, tmp_path):
        out = tmp_path / "map.txt"
        rc = main(match_args(small_pair, out, refine="proper-adjoint", tau="0.001"))
        assert rc == 0
        pred = np.array([int(l) for l in out.read_text().split()])
        assert np.array_equal(pred, small_pair.perm)

    def test_smooth_j_above_vertex_count_clamps_with_warning(self, tetra, tmp_path):
        mesh = tmp_path / "tetra.off"
        save_mesh(tetra, mesh)
        with pytest.warns(UserWarning, match="clamp") as record:
            run_match(MatchConfig(src=str(mesh), dst=str(mesh), out=str(tmp_path / "m.txt"),
                                  k=3, desc="xyz", smooth_j=10))
        # the warning points into the CLI pipeline, not into spectral.py
        assert [w.filename for w in record] == [cli.__file__] * 2

    def test_default_config_values(self):
        cfg = MatchConfig(src="a", dst="b", out="c")
        assert (cfg.k, cfg.desc, cfg.mu) == (30, "hks", 1e-3)
        assert (cfg.refine, cfg.convert, cfg.tau) == ("none", "adjoint", 0.07)


class TestEval:
    def test_identity_mean_zero(self, small_pair, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        save_correspondence(small_pair.perm, gt)
        out = tmp_path / "errors.csv"
        rc = main(["eval", "--pred", str(gt), "--gt", str(gt),
                   "--mesh", str(small_pair.src), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == "mean=0.000000\n"
        assert out.read_text().strip().endswith("mean=0.000000")

    def test_hand_mean_on_tetrahedron(self, tetra, tmp_path, capsys):
        mesh_path = tmp_path / "tetra.off"
        save_mesh(tetra, mesh_path)
        pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
        save_correspondence([1, 0, 2, 3], pred)
        save_correspondence([0, 1, 2, 3], gt)
        rc = main(["eval", "--pred", str(pred), "--gt", str(gt),
                   "--mesh", str(mesh_path), "--out", str(tmp_path / "e.csv")])
        assert rc == 0
        # two vertices off by one unit edge: mean = 100 / 3**0.25 / 2
        assert capsys.readouterr().out == "mean=37.991784\n"


class TestDiagnose:
    def test_reports_oracle_and_structure(self, small_pair, tmp_path, capsys):
        out = tmp_path / "diag.txt"
        rc = main(["diagnose", "--src", str(small_pair.src),
                   "--dst", str(small_pair.dst), "--k", "25",
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert capsys.readouterr().out == text
        data = key_values(text)
        for key in ("all_pass", "agreement", "completeness", "rank_A"):
            assert key in data

    def test_noise_lowers_completeness(self, small_pair, capsys):
        rc = main(["diagnose", "--src", str(small_pair.src),
                   "--dst", str(small_pair.dst), "--k", "25", "--noise", "0.5"])
        assert rc == 0
        data = key_values(capsys.readouterr().out)
        assert float(data["completeness2"]) < 0.999
        assert data["preconditions_ok"] == "false"

    @pytest.mark.parametrize("noise", [0.0, 0.5])
    def test_the_report_takes_the_oracles_measures(self, small_pair, monkeypatch, noise):
        calls = []
        original = diagnostics.nn_distinctness

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "nn_distinctness", counted)
        cfg = DiagnoseConfig(src=str(small_pair.src), dst=str(small_pair.dst), k=25,
                             noise=noise)
        verdict, report, text = run_diagnose(cfg)
        assert len(calls) == 1
        # the text a report that measures everything itself gives
        remeasured = []

        def full_report(*args, verdict, **kwargs):
            remeasured.append(verdict)
            return diagnostics.build_structure_report(*args, **kwargs)

        monkeypatch.setattr(cli, "build_structure_report", full_report)
        assert run_diagnose(cfg)[2] == text
        assert remeasured == [verdict] and len(calls) == 3


class TestExitCodes:
    def test_oversized_k_is_usage_error(self, small_pair, tmp_path, capsys):
        out = tmp_path / "map.txt"
        rc = main(match_args(small_pair, out, k=9999))
        assert rc == 2
        assert capsys.readouterr().err.startswith("fmapkit: usage error:")

    def test_missing_mesh_is_data_error(self, small_pair, tmp_path, capsys):
        rc = main(["match", "--src", str(tmp_path / "nope.off"),
                   "--dst", str(small_pair.dst), "--out", str(tmp_path / "o.txt")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("fmapkit:")

    @pytest.mark.parametrize("ext", sorted(EMPTY_MESHES))
    def test_empty_mesh_is_data_error(self, small_pair, tmp_path, capsys, ext):
        path = tmp_path / f"empty.{ext}"
        path.write_text(EMPTY_MESHES[ext])
        rc = main(["match", "--src", str(path), "--dst", str(small_pair.dst),
                   "--out", str(tmp_path / "o.txt")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("fmapkit: triangles must be (m, 3) with m >= 1")

    def test_malformed_landmarks_is_data_error(self, small_pair, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n")
        out = tmp_path / "map.txt"
        rc = main(match_args(SimpleNamespace(
            src=small_pair.src, dst=small_pair.dst, landmarks=bad), out))
        assert rc == 3

    def test_sparse_solver_failure_is_data_error(self, tmp_path, capsys, monkeypatch):
        # 2562 vertices with k, j <= 128 take the sparse eigensolver branch
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK did not converge", np.zeros(0),
                                      np.zeros((0, 0)))

        monkeypatch.setattr(spectral, "eigsh", no_convergence)
        mesh = tmp_path / "big.off"
        save_mesh(synth.bumpy_sphere(4), mesh)
        rc = main(["match", "--src", str(mesh), "--dst", str(mesh),
                   "--out", str(tmp_path / "map.txt")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("fmapkit: sparse eigensolver failed")
        assert "Traceback" not in err

    def test_dense_solver_failure_is_data_error(self, small_pair, tmp_path, capsys,
                                                monkeypatch):
        # 162 vertices take the dense eigensolver branch
        def no_convergence(a, **kwargs):
            return np.zeros(a.shape[0]), a, 7   # info > 0: LAPACK did not converge

        monkeypatch.setattr(spectral, "dsyevd", no_convergence)
        rc = main(match_args(small_pair, tmp_path / "map.txt"))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("fmapkit: dense eigensolver failed")
        assert "Traceback" not in err

    def test_out_of_memory_is_data_error(self, small_pair, tmp_path, capsys, monkeypatch):
        # numpy's report of a feature-mode soft map at n = 40962
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 12.5 GiB for an array with shape "
                              "(40962, 40962) and data type float64")

        monkeypatch.setattr(refine, "soft_map", no_memory)
        rc = main(match_args(small_pair, tmp_path / "map.txt", refine="proper-feature"))
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("fmapkit: out of memory: Unable to allocate 12.5 GiB")
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_data_error(self, small_pair, tmp_path, capsys, case):
        name, content = MALFORMED[case]
        bad = tmp_path / name
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        if name == "pred.txt":
            gt = tmp_path / "gt.txt"
            save_correspondence(small_pair.perm, gt)
            argv = ["eval", "--pred", str(bad), "--gt", str(gt),
                    "--mesh", str(small_pair.src), "--out", str(tmp_path / "e.csv")]
        else:
            argv = ["match", "--src", str(bad), "--dst", str(small_pair.dst),
                    "--out", str(tmp_path / "o.txt")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("fmapkit:")
        assert "Traceback" not in err

    def test_unknown_flag_raises_systemexit(self):
        with pytest.raises(SystemExit) as exc:
            main(["match", "--nope"])
        assert exc.value.code == 2

    def test_seed_is_only_a_diagnose_flag(self, small_pair, tmp_path):
        out = tmp_path / "o.txt"
        save_correspondence(small_pair.perm, out)
        for argv in (match_args(small_pair, out),
                     ["eval", "--pred", str(out), "--gt", str(out),
                      "--mesh", str(small_pair.src), "--out", str(tmp_path / "e.csv")]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--seed", "1"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("command, flags", [
        ("match", ["--refine-iters", "0"]),
        ("match", ["--tau", "0"]),
        ("match", ["--mu", "-1"]),
        ("match", ["--smooth-t", "-1"]),
        ("match", ["--landmark-t", "-1", "--landmarks", "lm.txt"]),
        ("diagnose", ["--noise", "-1"]),
        ("diagnose", ["--seed", "-1"]),
        ("match", ["--k", "0"]),
        ("match", ["--smooth-j", "0"]),
        ("diagnose", ["--k", "-1"]),
        ("match", ["--tau", "inf"]),
        ("match", ["--mu", "inf"]),
        ("match", ["--smooth-t", "inf"]),
        ("match", ["--landmark-t", "inf", "--landmarks", "lm.txt"]),
        ("diagnose", ["--noise", "inf"]),
    ])
    def test_out_of_range_value_is_usage_error(self, small_pair, tmp_path, capsys,
                                               command, flags):
        argv = [command, "--src", str(small_pair.src), "--dst", str(small_pair.dst),
                "--out", str(tmp_path / "o.txt"), *flags]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flags[0]}: must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["match", "eval", "diagnose"])
    def test_unwritable_output_is_data_error(self, small_pair, tmp_path, capsys, command):
        out = tmp_path / "missing" / "o.txt"
        if command == "eval":
            gt = tmp_path / "gt.txt"
            save_correspondence(small_pair.perm, gt)
            argv = ["eval", "--pred", str(gt), "--gt", str(gt), "--mesh", str(small_pair.src)]
        else:
            argv = [command, "--src", str(small_pair.src), "--dst", str(small_pair.dst)]
        assert main(argv + ["--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"fmapkit: cannot write {out}: ")

    def test_bad_choice_raises_systemexit(self, small_pair, tmp_path):
        with pytest.raises(SystemExit):
            main(match_args(small_pair, tmp_path / "o.txt", desc="sift"))


class TestSideCache:
    """A shape's eigenbasis is solved once and reused, with the bytes a fresh
    preparation gives; it is kept with its mesh, for one basis size."""

    @pytest.mark.parametrize("argv", [
        ["match"],
        ["match", "--desc", "stack", "--refine", "proper-adjoint"],
        ["diagnose"],
        ["diagnose", "--noise", "0.5"],
    ])
    def test_warm_run_writes_cold_bytes(self, small_pair, tmp_path, monkeypatch, capsys,
                                        argv):
        solves = spy(monkeypatch, cli, "eigenbasis")
        runs = []
        for run in ("cold", "warm"):
            out = tmp_path / f"{run}.txt"
            assert main([*argv, "--src", str(small_pair.src), "--dst", str(small_pair.dst),
                         "--out", str(out)]) == 0
            files = [out, tmp_path / f"{run}.txt.report"] if argv[0] == "match" else [out]
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            runs.append([stdout] + [f.read_bytes() for f in files])
            assert len(solves) == 2    # both bases solved on the cold run only
        assert runs[0] == runs[1]

    def test_each_keyed_input_misses(self, small_pair, monkeypatch):
        solves = spy(monkeypatch, cli, "eigenbasis")
        mesh = load_mesh(small_pair.src)   # 162 vertices; the basis size is max(k, j)
        cfg = MatchConfig(src="a", dst="b", out="c")
        args = {"landmarks": [0, 1, 2], "landmark_t": 0.1}

        def solved(cfg, **changed):
            """Eigensolves so far, after preparing the side."""
            cli._prepare_side(mesh, cfg=cfg, **{**args, **changed})
            return len(solves)

        assert solved(cfg) == 1
        # nothing but the size shapes the basis, and a k at or below j is inside it
        for changed in [{"landmarks": [0, 1, 3]}, {"landmark_t": 0.2}]:
            assert solved(cfg, **changed) == 1
        for name, value in [("k", 20), ("k", 128), ("smooth_t", 0.5), ("desc", "stack"),
                            ("src", "x"), ("dst", "y"), ("out", "z"), ("mu", 0.5),
                            ("tau", 0.5), ("refine", "proper-adjoint"),
                            ("refine_iters", 3), ("convert", "nn")]:
            assert solved(replace(cfg, **{name: value})) == 1
        assert solved(replace(cfg, smooth_j=100)) == 2
        assert solved(replace(cfg, k=140)) == 3
        assert solved(replace(cfg, k=140, smooth_j=10)) == 3
        # the key holds the clamped smoothing size; each call still warns
        with pytest.warns(UserWarning, match="clamp") as record:
            assert solved(replace(cfg, smooth_j=500)) == 4
            assert solved(replace(cfg, smooth_j=600)) == 4
        assert len(record) == 2

    def test_mesh_rewritten_in_place_misses(self, small_pair, tmp_path, monkeypatch):
        solves = spy(monkeypatch, cli, "eigenbasis")
        src = tmp_path / "src.off"

        def match(out):
            assert main(["match", "--src", str(src), "--dst", str(small_pair.dst),
                         "--out", str(tmp_path / out)]) == 0
            return (tmp_path / out).read_bytes(), (tmp_path / f"{out}.report").read_bytes()

        save_mesh(synth.icosphere(2), src)
        before = match("before.txt")
        save_mesh(synth.bumpy_sphere(2), src)   # same path and vertex count
        after = match("after.txt")
        assert len(solves) == 3    # the rewritten source only
        mesh_module._meshes.clear()   # both meshes go, and their bases with them
        assert after == match("cold.txt")
        assert after != before
        assert len(solves) == 5

    def test_cached_arrays_are_read_only(self, small_pair):
        basis = cli._basis(load_mesh(small_pair.src), 30)
        for arr in (basis.lam, basis.phi, basis.mass):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_only_a_smaller_prefix_is_copied(self, small_pair):
        mesh = load_mesh(small_pair.src)
        cfg = DiagnoseConfig(src="a", dst="b", k=40, smooth_j=40)
        basis, _ = cli._prepare_side(mesh, cfg)
        assert basis is cli._basis(mesh, 40)
        basis, _ = cli._prepare_side(mesh, replace(cfg, k=30))
        assert basis.k == 30 and not np.shares_memory(basis.phi, cli._basis(mesh, 40).phi)

    def test_size_is_bounded_and_eviction_comes_before_the_solve(self, small_pair,
                                                                 monkeypatch):
        solves = spy(monkeypatch, cli, "eigenbasis")
        mesh = load_mesh(small_pair.src)
        for j in (40, 50, 40, 60, 40, 70):
            cli._prepare_side(mesh, DiagnoseConfig(src="a", dst="b", smooth_j=j))
            assert held_bases() == 1
        # a mesh keeps one basis: each new size drops it before its own solve
        assert solves == [0] * 6

    def test_threads_share_the_cache_safely(self, monkeypatch):
        # stand-in solve on a 4-vertex mesh, so the threads spend their time
        # in the cache logic
        monkeypatch.setattr(cli, "build_laplacian", lambda mesh: None)
        monkeypatch.setattr(cli, "eigenbasis", lambda lap, k: spectral.SpectralBasis(
            np.zeros(k), np.zeros((1, k)), np.ones(1)))
        mesh = synth.tetrahedron()
        errors, wrong = [], []

        def work(offset):
            try:
                for i in range(20000):
                    k = 5 + (i + offset) % 3
                    basis = cli._basis(mesh, k)
                    if basis.k != k:
                        wrong.append((k, basis.k))
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
        assert held_bases() <= 1

    def test_derived_values_die_with_their_mesh(self, small_pair, tmp_path):
        mesh = load_mesh(small_pair.src)
        refs = [weakref.ref(cli._basis(mesh, 30)), weakref.ref(evaluate._landmarks(mesh))]
        del mesh
        assert all(ref() is not None for ref in refs)   # kept while the mesh is loaded
        ico = synth.icosphere(1)
        for i in range(mesh_module.MESH_CACHE_SIZE):    # evicts the first mesh
            save_mesh(TriMesh(ico.vertices * (i + 2), ico.triangles), tmp_path / f"{i}.off")
            load_mesh(tmp_path / f"{i}.off")
        assert [ref() for ref in refs] == [None, None]

    def test_match_and_diagnose_of_a_pair_share_its_bases(self, small_pair, tmp_path,
                                                          monkeypatch):
        solves = spy(monkeypatch, cli, "eigenbasis")
        run_match(MatchConfig(src=str(small_pair.src), dst=str(small_pair.dst),
                              out=str(tmp_path / "map.txt")))            # hks
        run_diagnose(DiagnoseConfig(src=str(small_pair.src), dst=str(small_pair.dst)))
        assert len(solves) == 2

    def test_second_match_of_a_source_prepares_only_the_target(self, small_pair,
                                                               tmp_path, monkeypatch):
        other = tmp_path / "other.off"
        save_mesh(synth.permuted_copy(synth.icosphere(2), seed=5)[0], other)
        cfg = MatchConfig(src=str(small_pair.src), dst=str(small_pair.dst),
                          out=str(tmp_path / "map.txt"), desc="stack",
                          refine="proper-adjoint")
        run_match(cfg)
        solves = spy(monkeypatch, cli, "eigenbasis")
        run_match(replace(cfg, dst=str(other)))
        assert len(solves) == 1


class TestBenchTrace:
    """The benchmark's tracer (bench/spans.py) still sees each layer's calls."""

    @staticmethod
    def tracer(monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ as it is
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        module_spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(spans)
        return spans.Tracer()

    def test_trace_reads_every_layer_of_a_match_and_a_diagnose(self, small_pair,
                                                                 tmp_path, monkeypatch):
        tracer = self.tracer(monkeypatch)
        with tracer.installed(op=0):
            run_match(MatchConfig(src=str(small_pair.src), dst=str(small_pair.dst),
                                  out=str(tmp_path / "map.txt")))
            run_diagnose(DiagnoseConfig(src=str(small_pair.src), dst=str(small_pair.dst)))
        assert tracer.counts[(0, "spectral.eigenbasis_calls")] == 2
        seconds = tracer.per_op()[0]
        for span in ("spectral.eigenbasis", "spectral.smooth", "descriptors.build",
                     "diagnostics.distinct"):
            assert seconds[span] > 0, span

    def test_trace_reads_the_refine_layers_of_a_match(self, small_pair, tmp_path,
                                                      monkeypatch):
        # feature mode builds one whole soft map and projects it, in their own
        # spans; adjoint mode builds no soft map, so its time is refine's own
        # and the soft-map span and byte count stay empty (the report still
        # projects the hard map through `fmap.project`)
        def traced_match(refine):
            tracer = self.tracer(monkeypatch)
            with tracer.installed(op=0):
                run_match(MatchConfig(src=str(small_pair.src), dst=str(small_pair.dst),
                                      out=str(tmp_path / "map.txt"), desc="stack",
                                      refine=refine))
            return tracer, tracer.per_op()[0]

        tracer, seconds = traced_match("proper-feature")
        for span in ("fmap.softmap", "fmap.project"):
            assert seconds[span] > 0, span
        n1 = load_mesh(small_pair.src).n_vertices
        n2 = load_mesh(small_pair.dst).n_vertices
        assert tracer.peaks["fmap.softmap_bytes"] == n2 * n1 * 8
        tracer, seconds = traced_match("proper-adjoint")
        assert seconds["refine.proper"] > 0
        assert seconds["fmap.softmap"] == 0
        assert tracer.peaks["fmap.softmap_bytes"] == 0


IMPORTS_SCRIPT = """
import json
import sys

import fmapkit.cli as cli

def loaded():
    return [name for name in ("scipy.spatial", "scipy.sparse.csgraph") if name in sys.modules]

src, dst, pred, gt, out = sys.argv[1:]
seen = [loaded()]
assert cli.main(["eval", "--pred", pred, "--gt", gt, "--mesh", src, "--out", out + ".csv"]) == 0
seen.append(loaded())
assert cli.main(["match", "--src", src, "--dst", dst, "--out", out]) == 0
seen.append(loaded())
assert cli.main(["match", "--src", src, "--dst", dst, "--out", out, "--convert", "nn"]) == 0
seen.append(loaded())
assert cli.main(["diagnose", "--src", src, "--dst", dst, "--out", out + ".diag"]) == 0
seen.append(loaded())
print(json.dumps(seen))
"""


class TestImports:
    """Each command imports only the scipy modules it calls."""

    def test_each_command_loads_what_it_calls(self, small_pair, tmp_path):
        pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
        save_correspondence(small_pair.perm, gt)
        save_correspondence(np.roll(small_pair.perm, 1), pred)   # every entry wrong
        src = str(Path(fmapkit.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", IMPORTS_SCRIPT, str(small_pair.src), str(small_pair.dst),
             str(pred), str(gt), str(tmp_path / "map.txt")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        on_import, *after_each = json.loads(proc.stdout.splitlines()[-1])
        assert on_import == []
        # eval searches the mesh graph; match (adjoint and nn) and diagnose
        # find nearest rows with fmapkit's own kernel, never scipy.spatial
        assert after_each == [["scipy.sparse.csgraph"]] * 4


class TestLandmarkParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_text("# header comment\n0 5\n3 7\n\n")
        src, dst = load_landmark_pairs(path)
        assert src.dtype == dst.dtype == np.int64
        assert (src.tolist(), dst.tolist()) == ([0, 3], [5, 7])

    def test_non_integer_rejected(self, tmp_path):
        from fmapkit.errors import ParseError

        path = tmp_path / "lm.txt"
        path.write_text("0 x\n")
        with pytest.raises(ParseError):
            load_landmark_pairs(path)


def subparser(command):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


class TestOneParser:
    """main() builds its parser once per process, and no option of one call
    reaches the next."""

    def test_commands_in_sequence_take_only_their_own_flags(self, monkeypatch, capsys):
        seen = []

        def record(result):
            def runner(*args, **kwargs):
                seen.append(args[0] if args else kwargs)
                return result
            return runner

        monkeypatch.setattr(cli, "run_match", record((np.zeros(1), None, None)))
        monkeypatch.setattr(cli, "run_eval", record(np.zeros(1)))
        monkeypatch.setattr(cli, "run_diagnose", record((None, None, "")))
        pair = ["--src", "a", "--dst", "b"]
        match_flags = ["--k", "7", "--desc", "wks", "--smooth-j", "9", "--smooth-t", "0.5",
                       "--mu", "2", "--refine", "proper-feature", "--refine-iters", "3",
                       "--tau", "0.5", "--convert", "nn", "--landmarks", "l",
                       "--landmark-t", "0.3"]
        diagnose_flags = ["--k", "8", "--desc", "xyz", "--smooth-j", "5", "--smooth-t", "1",
                          "--mu", "4", "--out", "d", "--noise", "0.2", "--seed", "6"]
        eval_args = ["--pred", "p", "--gt", "g", "--mesh", "m", "--out", "e"]
        runs = [
            (["match", *pair, "--out", "c", *match_flags],
             MatchConfig(src="a", dst="b", out="c", k=7, desc="wks", smooth_j=9,
                         smooth_t=0.5, mu=2.0, refine="proper-feature", refine_iters=3,
                         tau=0.5, convert="nn", landmarks="l", landmark_t=0.3)),
            (["eval", *eval_args], dict(pred="p", gt="g", mesh="m", out="e")),
            (["diagnose", *pair], DiagnoseConfig(src="a", dst="b")),
            (["diagnose", *pair, *diagnose_flags],
             DiagnoseConfig(src="a", dst="b", k=8, desc="xyz", smooth_j=5, smooth_t=1.0,
                            mu=4.0, out="d", noise=0.2, seed=6)),
            (["match", *pair, "--out", "c"], MatchConfig(src="a", dst="b", out="c")),
            (["eval", *eval_args], dict(pred="p", gt="g", mesh="m", out="e")),
            (["diagnose", *pair], DiagnoseConfig(src="a", dst="b")),
        ]
        parser = cli._build_parser()
        for argv, expected in runs:
            assert main(argv) == 0
            assert seen.pop() == expected, argv
        assert cli._build_parser() is parser
        capsys.readouterr()

    def test_errors_and_help_are_unchanged_on_a_reused_parser(self, capsys):
        def run(argv):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        argvs = [["match", "--src", "a"], ["eval", "--help"], ["diagnose", "--k", "0"]]
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert [run(argv) for argv in argvs * 2] == fresh * 2   # one parser for all six
        assert [code for code, _, _ in fresh] == [2, 0, 2]


class TestOneDeclaration:
    """Each option is declared once: as a flag, and as a config field with its default."""

    @pytest.mark.parametrize("command, config", [("match", MatchConfig),
                                                 ("diagnose", DiagnoseConfig)])
    def test_flags_are_the_config_fields(self, command, config):
        dests = {a.dest for a in subparser(command)._actions} - {"help"}
        assert dests == {f.name for f in fields(config)}

    @pytest.mark.parametrize("command, runner, config", [
        ("match", "run_match", MatchConfig(src="a", dst="b", out="c")),
        ("diagnose", "run_diagnose", DiagnoseConfig(src="a", dst="b")),
    ])
    def test_absent_flags_take_config_defaults(self, monkeypatch, command, runner, config):
        seen = []

        def spy(cfg):   # records the config, then stops main before any work
            seen.append(cfg)
            raise InvalidK("stop")

        monkeypatch.setattr(cli, runner, spy)
        argv = [command, "--src", "a", "--dst", "b"] + (["--out", "c"] if config.out else [])
        assert main(argv) == 2
        assert seen == [config]

    @pytest.mark.parametrize("command, config, desc", [("match", MatchConfig, "hks"),
                                                       ("diagnose", DiagnoseConfig, "stack")])
    def test_help_shows_config_defaults(self, command, config, desc, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = capsys.readouterr().out.split("options:")[1]
        entries = {}   # flag -> its help entry, whitespace collapsed
        for chunk in re.split(r"\n  (?=-)", options.strip()):
            entries[chunk.split()[0]] = " ".join(chunk.split())
        assert entries["--desc"].endswith(f"(default: {desc})")
        for f in fields(config):
            entry = entries["--" + f.name.replace("_", "-")]
            if f.default is MISSING or f.default is None:
                assert "(default:" not in entry
            else:
                assert entry.endswith(f"(default: {f.default})")

    @pytest.mark.parametrize("command", ["match", "eval", "diagnose"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: fmapkit {command}")
