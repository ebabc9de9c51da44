"""Acceptance gate: eleven numbered end-to-end criteria, one test each.

Run with -v to get one pass/fail line per criterion. Each test also prints
a 'criterion NN PASS' line with the measured values (visible with -s or in
a failure's captured output). Several criteria assert exact pinned floats
produced by the seeded fixtures; those pins double as determinism checks.
They hold at any OpenBLAS thread count, because fmapkit runs its BLAS and
LAPACK work single-threaded (tests/test_blas.py compares 1 and 2 threads);
with a BLAS fmapkit cannot control they hold only at a fixed thread count.
They are tied to the numpy/scipy/OpenBLAS build; those that also depend on
the CPU kernel OpenBLAS selects hold one value per kernel (tests/pins.py).
"""

import sys
import time
from pathlib import Path

import numpy as np

from oracles import brute_nn, fd_gradient
from pins import COMPLETENESS2, NOISY_TRACE, pinned

from fmapkit.cli import main
from fmapkit.diagnostics import (
    energy_terms,
    measure_completeness,
    theorem_oracle,
)
from fmapkit.evaluate import geodesic_error
from fmapkit.fmap import (
    convert_adjoint,
    convert_feature_nn,
    grad_unsupervised,
    loss_unsupervised,
    nearest_rows,
    soft_map,
)
from fmapkit.mesh import TriMesh
from fmapkit.refine import refine_proper
from fmapkit.spectral import eigen_residuals, eigenbasis, smooth_features

PINNED_NOISY_INIT_ERR = 0.4589985631962465  # criterion 7

# incomplete-feature fixture (criterion 4)
PINNED_AGREEMENT = 0.9953271028037384


def _pass(n: int, msg: str) -> None:
    print(f"criterion {n:02d} PASS: {msg}")


def test_criterion_01_spectral_correctness(spectral_meshes):
    worst_ortho = worst_resid = worst_time = 0.0
    for name, mesh in spectral_meshes.items():
        assert mesh.n_vertices <= 2000
        from fmapkit.spectral import build_laplacian

        lap = build_laplacian(mesh)
        k = min(30, mesh.n_vertices)
        t0 = time.perf_counter()
        basis = eigenbasis(lap, k)
        elapsed = time.perf_counter() - t0
        gram = basis.phi.T @ (lap.mass[:, None] * basis.phi)
        ortho = np.abs(gram - np.eye(k)).max()
        resid = eigen_residuals(lap, basis).max()
        assert ortho < 1e-8, f"{name}: orthonormality {ortho}"
        assert resid < 1e-6, f"{name}: eigen residual {resid}"
        assert elapsed < 30.0, f"{name}: {elapsed:.1f}s"
        worst_ortho = max(worst_ortho, ortho)
        worst_resid = max(worst_resid, resid)
        worst_time = max(worst_time, elapsed)
    _pass(1, f"7 meshes, ortho<={worst_ortho:.2e}, resid<={worst_resid:.2e}, "
             f"slowest {worst_time:.2f}s")


def test_criterion_02_exact_recovery_oracle(pair, complete_features):
    F1, F2 = complete_features
    t0 = time.perf_counter()
    v = theorem_oracle(F1, F2, pair.basis1, pair.basis2)
    elapsed = time.perf_counter() - t0
    a1 = pair.basis1.project(F1)
    a2 = pair.basis2.project(F2)
    c_opt = np.linalg.lstsq(a1.T, a2.T, rcond=None)[0].T
    raw_resid = float(np.linalg.norm(c_opt @ a1 - a2))
    assert raw_resid < 1e-8
    assert v.fmap_residual < 1e-8
    assert v.basis_align < 1e-6
    assert v.agreement == 1.0
    assert v.all_pass
    assert elapsed < 10.0
    _pass(2, f"||C A1 - A2||={raw_resid:.2e}, chamfer={v.basis_align:.2e}, "
             f"agreement=1.0, {elapsed:.2f}s")


def test_criterion_03_energy_decomposition_identity(pair, complete_features):
    F1, F2 = complete_features
    worst = 0.0
    for s in range(10):
        rng = np.random.default_rng(40 + s)
        pi = rng.integers(0, 642, 642)
        e, e1, e2 = energy_terms(pi, F1, F2, pair.basis2)
        worst = max(worst, abs(e - (e1 + e2)))
    assert worst < 1e-8
    _pass(3, f"E=(E1+E2) over 10 random maps, worst gap {worst:.2e}")


def test_criterion_04_incompleteness_breaks_agreement(pair, incomplete_features):
    F1, F2n = incomplete_features
    v = theorem_oracle(F1, F2n, pair.basis1, pair.basis2)
    assert v.completeness2 <= 0.9
    assert v.agreement < 1.0
    # exact pins from the seeded fixture; equality doubles as determinism
    assert v.completeness2 == pinned(COMPLETENESS2)
    assert v.agreement == PINNED_AGREEMENT
    _pass(4, f"completeness2={v.completeness2:.6f}, "
             f"agreement={v.agreement:.10f} (pinned, 3/642 rows differ)")


def test_criterion_05_analytic_gradients_match_differences():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        C12 = rng.standard_normal((6, 6))
        C21 = rng.standard_normal((6, 6))
        g12, g21 = grad_unsupervised(C12, C21)
        f12 = fd_gradient(lambda X: loss_unsupervised(X, C21), C12)
        f21 = fd_gradient(lambda Y: loss_unsupervised(C12, Y), C21)
        rel = max(
            np.abs(g12 - f12).max() / max(1.0, np.abs(f12).max()),
            np.abs(g21 - f21).max() / max(1.0, np.abs(f21).max()),
        )
        worst = max(worst, rel)
    assert worst < 1e-5
    _pass(5, f"20 random points, worst relative error {worst:.2e}")


def test_criterion_06_soft_map_sharpens_to_nearest_neighbor():
    rng = np.random.default_rng(7)
    G1 = rng.standard_normal((300, 8))
    G1 /= np.linalg.norm(G1, axis=1, keepdims=True)
    idx = rng.integers(0, 300, 400)
    G2 = G1[idx] + 0.1 * rng.standard_normal((400, 8))
    G2 /= np.linalg.norm(G2, axis=1, keepdims=True)
    nn = nearest_rows(G2, G1)
    dists = np.linalg.norm(G2[:, None, :] - G1[None, :, :], axis=2)
    two_best = np.sort(dists, axis=1)[:, :2]
    keep = (two_best[:, 1] - two_best[:, 0]) >= 0.05
    assert int(keep.sum()) == 397  # margin filter on the seeded rows
    argmax = soft_map(G1, G2, tau=1e-3).argmax(axis=1)
    agree = int((argmax[keep] == nn[keep]).sum())
    assert agree == int(keep.sum())
    _pass(6, f"argmax(tau=1e-3) == NN on {agree}/{int(keep.sum())} "
             f"margin>=0.05 rows (of 400)")


def test_criterion_07_properness_refinement_improves(pair):
    noise = np.random.default_rng(17).standard_normal((30, 30))
    C0 = pair.C_gt + 0.1 * noise
    init_err = geodesic_error(
        convert_adjoint(C0, pair.basis1.phi, pair.basis2.phi),
        pair.perm, pair.mesh1,
    ).mean()
    C, trace = refine_proper(C0, pair.basis1, pair.basis2, iters=10)
    final_err = geodesic_error(
        convert_adjoint(C, pair.basis1.phi, pair.basis2.phi),
        pair.perm, pair.mesh1,
    ).mean()
    assert np.all(np.diff(trace) <= 0)
    assert final_err <= init_err
    assert trace.tolist() == pinned(NOISY_TRACE)
    assert float(init_err) == PINNED_NOISY_INIT_ERR
    assert float(final_err) == 0.0
    _pass(7, f"monotone 10-step trace pinned, error "
             f"{float(init_err):.4f} -> 0.0")


def test_criterion_08_smoothing_restores_completeness(pair):
    raw = np.random.default_rng(23).standard_normal((642, 40))
    basis_j = eigenbasis(pair.lap1, 40)
    for t in (0.0, 0.5, 2.0):
        c = measure_completeness(basis_j, smooth_features(basis_j, raw, t))
        assert abs(c - 1.0) < 1e-10, f"t={t}: completeness {c}"
    F1s = smooth_features(pair.basis1, raw, 0.5)
    F2s = smooth_features(pair.basis2, raw[pair.perm], 0.5)
    v = theorem_oracle(F1s, F2s, pair.basis1, pair.basis2)
    assert v.preconditions_ok
    _pass(8, "completeness == 1 at t in {0, 0.5, 2}; j=k stacks pass all "
             "oracle preconditions")


def test_criterion_09_error_protocol_sanity(pair, tetra, ico162):
    idx = np.arange(162)
    assert geodesic_error(idx, idx, ico162).max() == 0.0
    pred = np.random.default_rng(6).integers(0, 642, 642)
    base = geodesic_error(pred, pair.perm, pair.mesh1)
    doubled = TriMesh(2.0 * pair.mesh1.vertices, pair.mesh1.triangles)
    scaled = geodesic_error(pred, pair.perm, doubled)
    rel = np.abs(scaled - base).max() / base.max()
    assert rel < 1e-9
    # one swapped unit edge on the tetrahedron: 100 * 1 / sqrt(3)**0.5
    e = geodesic_error([1, 0, 2, 3], [0, 1, 2, 3], tetra)
    assert abs(e[0] - 100.0 / 3**0.25) < 1e-9
    _pass(9, f"identity=0, 2x-scale rel err {rel:.1e}, "
             f"hand-checked normalization {e[0]:.6f}")


def test_criterion_10_cli_end_to_end(cli_pair, tmp_path):
    t0 = time.perf_counter()
    outs = {}
    for convert in ("adjoint", "nn"):
        for run in ("a", "b"):
            out = tmp_path / f"{convert}_{run}.txt"
            rc = main([
                "match", "--src", str(cli_pair.src), "--dst", str(cli_pair.dst),
                "--out", str(out), "--k", "25", "--desc", "stack",
                "--mu", "0", "--landmarks", str(cli_pair.landmarks),
                "--convert", convert,
            ])
            assert rc == 0
            outs[(convert, run)] = out.read_bytes()
    elapsed = time.perf_counter() - t0
    assert len(set(outs.values())) == 1  # all four byte-identical
    pred = np.array([int(tok) for tok in outs[("adjoint", "a")].split()])
    assert np.array_equal(pred, cli_pair.perm)
    assert elapsed < 60.0
    _pass(10, f"both converters exact and byte-identical on 642 vertices "
              f"in {elapsed:.1f}s")


def test_criterion_11_converters_match_brute_force():
    for s in range(20):
        rng = np.random.default_rng(1000 + s)
        phi1 = rng.standard_normal((200, 8))
        phi2 = rng.standard_normal((200, 8))
        C = rng.standard_normal((8, 8))
        pa = convert_adjoint(C, phi1, phi2)
        assert np.array_equal(pa, brute_nn(phi2 @ C, phi1))
        F1 = rng.standard_normal((200, 12))
        F2 = rng.standard_normal((200, 12))
        pn = convert_feature_nn(F1, F2)
        assert np.array_equal(pn, brute_nn(F2, F1))
    _pass(11, "adjoint and feature-NN converters match the O(n^2) oracle "
              "on 20 seeded 200-vertex instances")
