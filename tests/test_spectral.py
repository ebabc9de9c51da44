"""Cotangent Laplacian assembly and the truncated eigenbasis.

The assembly is checked entry-for-entry against a law-of-cosines reference,
and the eigensolve against scipy's generalized symmetric driver; both live
in oracles.py. The sparse shift-invert branch is checked against the dense
one on a 2562-vertex bumpy sphere, whose low spectrum is simple. Handcrafted fixtures pin the cotangent arithmetic (interior
edge weight 0 on a square split along its diagonal, -1 on a kite whose
opposite angles are 45 degrees).
"""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

import oracles as orc
from fmapkit import spectral, synth
from fmapkit._blas import single_threaded
from fmapkit.descriptors import (
    concat_features,
    descriptor_hks,
    descriptor_landmarks,
    descriptor_wks,
    normalize_columns,
    project_coeffs,
)
from fmapkit.diagnostics import (
    build_structure_report,
    energy_terms,
    measure_basis_aligning,
    measure_completeness,
    nn_distinctness,
    rank_report,
    theorem_oracle,
)
from fmapkit.errors import InvalidK, LengthMismatch, SolverFailure
from fmapkit.fmap import (
    convert_feature_nn,
    loss_properness,
    nearest_rows,
    soft_map,
    solve_fmap,
)
from fmapkit.mesh import TriMesh
from fmapkit.refine import refine_proper
from fmapkit.spectral import (
    LaplacianPair,
    SpectralBasis,
    MAX_DENSE_VERTICES,
    SPARSE_K_RATIO,
    SPARSE_MIN_VERTICES,
    build_laplacian,
    diffuse,
    eigen_residuals,
    eigenbasis,
    smooth_features,
)

# pinned from oracles.generalized_eigs_ref on the law-of-cosines assembly,
# before the dense route existed; the sphere's continuum values are l(l+1)
ICO162_LAMBDA_1TO3 = 1.9999079489
ICO162_LAMBDA_4TO7 = 5.8644962062


class TestAssembly:
    def test_square_interior_edge_weight_is_zero(self, square):
        # angles opposite the diagonal (0, 2) are the two right angles:
        # -(cot90 + cot90)/2 = 0
        W = build_laplacian(square).W.toarray()
        assert W[0, 2] == pytest.approx(0.0, abs=1e-14)

    def test_kite_interior_edge_weight_is_minus_one(self, kite):
        # opposite angles are 45 degrees: -(cot45 + cot45)/2 = -1
        W = build_laplacian(kite).W.toarray()
        assert W[0, 1] == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("name", ["tetra", "kite", "square", "strip", "ico162"])
    def test_matches_law_of_cosines_assembly(self, name, spectral_meshes):
        mesh = spectral_meshes[name]
        lap = build_laplacian(mesh)
        W_ref, m_ref = orc.cot_laplacian_ref(mesh.vertices, mesh.triangles)
        assert lap.W.toarray() == pytest.approx(W_ref, abs=1e-11)
        assert lap.mass == pytest.approx(m_ref, rel=1e-12)

    @pytest.mark.parametrize("name", ["tetra", "ico162", "bumpy642"])
    def test_rows_sum_to_zero(self, name, spectral_meshes):
        W = build_laplacian(spectral_meshes[name]).W
        assert np.abs(W.sum(axis=1)).max() == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self, bumpy642):
        W = build_laplacian(bumpy642).W
        assert (W - W.T).nnz == 0 or np.abs((W - W.T).toarray()).max() < 1e-14

    def test_mass_is_one_third_area(self, tetra):
        lap = build_laplacian(tetra)
        assert lap.mass.sum() == pytest.approx(tetra.total_area(), rel=1e-14)

    def test_pair_validation(self):
        with pytest.raises(SolverFailure):
            LaplacianPair(sparse.eye(3, format="csr"), np.array([1.0, 1.0]))
        with pytest.raises(SolverFailure):
            LaplacianPair(sparse.eye(3, format="csr"), np.array([1.0, 0.0, 1.0]))


class TestEigenbasis:
    def test_matches_generalized_driver(self, ico162):
        lap = build_laplacian(ico162)
        basis = eigenbasis(lap, 8)
        W_ref, m_ref = orc.cot_laplacian_ref(ico162.vertices, ico162.triangles)
        vals, _ = orc.generalized_eigs_ref(W_ref, m_ref, 8)
        assert basis.lam[1:] == pytest.approx(vals[1:], rel=1e-9)
        assert abs(basis.lam[0]) < 1e-10

    def test_sphere_eigenvalue_pins(self, ico162):
        lam = eigenbasis(build_laplacian(ico162), 8).lam
        assert lam[1:4] == pytest.approx(np.full(3, ICO162_LAMBDA_1TO3), rel=1e-9)
        assert lam[4:8] == pytest.approx(np.full(4, ICO162_LAMBDA_4TO7), rel=1e-9)

    @pytest.mark.parametrize(
        "name", ["tetra", "kite", "square", "strip", "ico162", "ico642", "bumpy642"]
    )
    def test_orthonormal_and_low_residual(self, name, spectral_meshes):
        mesh = spectral_meshes[name]
        lap = build_laplacian(mesh)
        k = min(30, mesh.n_vertices)
        basis = eigenbasis(lap, k)
        gram = basis.phi.T @ (lap.mass[:, None] * basis.phi)
        assert np.abs(gram - np.eye(k)).max() < 1e-8
        assert eigen_residuals(lap, basis).max() < 1e-6

    def test_eigenvalues_sorted_nonnegative(self, bumpy642):
        lam = eigenbasis(build_laplacian(bumpy642), 30).lam
        assert np.all(np.diff(lam) >= 0)
        assert np.all(lam >= 0)

    def test_first_mode_constant(self, ico162):
        basis = eigenbasis(build_laplacian(ico162), 4)
        col = basis.phi[:, 0]
        assert col.std() / np.abs(col).max() < 1e-10
        assert col[0] > 0  # sign convention: largest-magnitude entry positive

    def test_sign_convention_and_determinism(self, bumpy642):
        lap = build_laplacian(bumpy642)
        b1 = eigenbasis(lap, 12)
        b2 = eigenbasis(build_laplacian(bumpy642), 12)
        assert np.array_equal(b1.phi, b2.phi)
        peak = np.argmax(np.abs(b1.phi), axis=0)
        assert np.all(b1.phi[peak, np.arange(12)] > 0)

    def test_truncate_equals_smaller_solve(self, ico162):
        lap = build_laplacian(ico162)
        big = eigenbasis(lap, 20)
        small = eigenbasis(lap, 7)
        assert np.array_equal(big.truncate(7).phi, small.phi)
        assert np.array_equal(big.truncate(7).lam, small.lam)

    def test_truncate_validation(self, ico162):
        basis = eigenbasis(build_laplacian(ico162), 5)
        with pytest.raises(InvalidK):
            basis.truncate(6)
        with pytest.raises(InvalidK):
            basis.truncate(0)

    def test_mass_must_match_vertex_count(self, ico162):
        basis = eigenbasis(build_laplacian(ico162), 5)
        with pytest.raises(SolverFailure):
            SpectralBasis(basis.lam, basis.phi, basis.mass[:-1])

    def test_invalid_k(self, tetra):
        lap = build_laplacian(tetra)
        with pytest.raises(InvalidK):
            eigenbasis(lap, 0)
        with pytest.raises(InvalidK):
            eigenbasis(lap, 5)

    def test_dense_cap(self):
        # k = 1000 keeps this mesh on the dense branch, which refuses it
        # before allocating the n x n operator
        n = MAX_DENSE_VERTICES + 1
        lap = LaplacianPair(sparse.eye(n, format="csr"), np.ones(n))
        assert SPARSE_K_RATIO * 1000 >= n
        with pytest.raises(SolverFailure, match="dense eigensolver cap"):
            eigenbasis(lap, 1000)

    def test_sparse_branch_has_no_size_cap(self):
        mesh = synth.bumpy_sphere(5)
        assert mesh.n_vertices > MAX_DENSE_VERTICES
        lap = build_laplacian(mesh)
        basis = eigenbasis(lap, 30)
        gram = basis.phi.T @ (lap.mass[:, None] * basis.phi)
        assert np.abs(gram - np.eye(30)).max() < 1e-8
        assert eigen_residuals(lap, basis).max() < 1e-6

    def test_project_reconstruct_in_span(self, ico162):
        lap = build_laplacian(ico162)
        basis = eigenbasis(lap, 15)
        f = basis.phi @ np.arange(1.0, 16.0)
        assert basis.reconstruct(basis.project(f)) == pytest.approx(f, abs=1e-10)

    def test_project_matrix_shape(self, ico162):
        basis = eigenbasis(build_laplacian(ico162), 6)
        rng = np.random.default_rng(0)
        F = rng.standard_normal((162, 5))
        assert basis.project(F).shape == (6, 5)

    @pytest.mark.parametrize("shape", [(1, 3), (161,), (162, 3, 1)])
    def test_project_rejects_other_shapes(self, ico162, shape):
        # a one-row stack would broadcast against the mass: a (10, 3)
        # projection and a (162, 3) diffusion of a single row
        basis = eigenbasis(build_laplacian(ico162), 10)
        with pytest.raises(LengthMismatch, match=r"expected \(162,\) or \(162, d\)"):
            basis.project(np.ones(shape))
        with pytest.raises(LengthMismatch):
            diffuse(basis, np.ones(shape), 0.1)

    @pytest.mark.parametrize("measure", [project_coeffs, measure_completeness])
    def test_row_count_is_checked_by_the_basis(self, ico162, measure):
        basis = eigenbasis(build_laplacian(ico162), 10)
        with pytest.raises(LengthMismatch, match=r"expected \(162,\) or \(162, d\)"):
            measure(basis, np.ones((161, 2)))


def _numpy_dense_eigs(lap):
    """The dense branch as it was written on np.linalg.eigh, all n pairs."""
    s = 1.0 / np.sqrt(lap.mass)
    B = (lap.W.multiply(s[:, None]).multiply(s[None, :])).toarray()
    with single_threaded():
        w, u = np.linalg.eigh(0.5 * (B + B.T))
    return np.maximum(w, 0.0), u * s[:, None]


def _failing_dsyevd(info):
    def dsyevd(a, **kwargs):
        n = a.shape[0]
        return np.zeros(n), np.zeros((n, n)), info
    return dsyevd


class TestDenseBranch:
    @pytest.mark.parametrize(
        "name", ["tetra", "kite", "square", "strip", "ico162", "ico642", "bumpy642"]
    )
    def test_bit_equal_to_numpy_eigh(self, name, spectral_meshes):
        lap = build_laplacian(spectral_meshes[name])
        w, u = single_threaded()(spectral._dense_eigs)(lap, lap.n)
        w_ref, u_ref = _numpy_dense_eigs(lap)
        assert np.array_equal(w, w_ref)
        assert np.array_equal(u, u_ref)

    def test_solves_in_place(self, bumpy642):
        # the peak is B plus dsyevd's 2 n^2 workspace, ~3 n^2 doubles (the
        # copy `B += B.T` makes is freed before); one more copy of B is 4 n^2
        lap = build_laplacian(bumpy642)
        n = lap.n
        eigenbasis(lap, 30)  # warm every lazy import first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            eigenbasis(lap, 30)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * n * 8

    @pytest.mark.parametrize("info", [1, -3])
    def test_lapack_failure_is_solver_failure(self, tetra, monkeypatch, info):
        monkeypatch.setattr(spectral, "dsyevd", _failing_dsyevd(info))
        with pytest.raises(SolverFailure, match=f"dense eigensolver failed.*info = {info}"):
            eigenbasis(build_laplacian(tetra), 2)


class TestDiffusion:
    def test_matches_term_sum(self, ico162):
        lap = build_laplacian(ico162)
        basis = eigenbasis(lap, 20)
        f = np.random.default_rng(1).standard_normal(162)
        ref = orc.diffuse_ref(basis.lam, basis.phi, lap.mass, f, 0.3)
        assert diffuse(basis, f, 0.3) == pytest.approx(ref, abs=1e-12)

    def test_zero_time_is_projection(self, ico162):
        lap = build_laplacian(ico162)
        basis = eigenbasis(lap, 20)
        f = np.random.default_rng(2).standard_normal(162)
        assert diffuse(basis, f, 0.0) == pytest.approx(
            basis.reconstruct(basis.project(f)), abs=1e-13
        )

    def test_negative_time_rejected(self, ico162):
        basis = eigenbasis(build_laplacian(ico162), 4)
        with pytest.raises(ValueError):
            diffuse(basis, np.zeros(162), -0.1)

    @settings(deadline=None, max_examples=20)
    @given(t1=st.floats(0.0, 2.0), t2=st.floats(0.0, 2.0))
    def test_semigroup_property(self, ico162_basis, t1, t2):
        basis, f = ico162_basis
        once = diffuse(basis, f, t1 + t2)
        twice = diffuse(basis, diffuse(basis, f, t1), t2)
        assert twice == pytest.approx(once, abs=1e-9)

    def test_long_time_limit_is_weighted_mean(self, ico162):
        lap = build_laplacian(ico162)
        basis = eigenbasis(lap, 20)
        f = np.random.default_rng(3).standard_normal(162)
        limit = diffuse(basis, f, 1e6)
        mean = float(np.sum(lap.mass * f) / lap.mass.sum())
        assert limit == pytest.approx(np.full(162, mean), abs=1e-8)

    def test_smooth_features_lands_in_span(self, ico162):
        lap = build_laplacian(ico162)
        basis = eigenbasis(lap, 10)
        F = np.random.default_rng(4).standard_normal((162, 7))
        out = smooth_features(basis, F, 0.2)
        # residual against the span must vanish
        resid = out - basis.reconstruct(basis.project(out))
        assert np.abs(resid).max() < 1e-12

    def test_smooth_features_rejects_1d(self, ico162):
        basis = eigenbasis(build_laplacian(ico162), 4)
        with pytest.raises(LengthMismatch):
            smooth_features(basis, np.zeros(162), 0.1)


# Every public function that takes a descriptor stack, called with `x` in that
# stack's place and well-formed arguments elsewhere (k = 20, n = 162).
STACK_TAKERS = {
    "smooth_features": lambda b, x: smooth_features(b, x, 0.1),
    "normalize_columns": lambda b, x: normalize_columns(x, b.mass),
    "project_coeffs": lambda b, x: project_coeffs(b, x),
    "concat_features": lambda b, x: concat_features([b.phi, x]),
    "nearest_rows": lambda b, x: nearest_rows(x, b.phi),
    "convert_feature_nn": lambda b, x: convert_feature_nn(b.phi, x),
    "soft_map": lambda b, x: soft_map(x, b.phi),
    "solve_fmap": lambda b, x: solve_fmap(x, np.eye(20), b.lam, b.lam),
    "nn_distinctness": lambda b, x: nn_distinctness(x),
    "measure_completeness": lambda b, x: measure_completeness(b, x),
    "rank_report": lambda b, x: rank_report(x, b.project(b.phi)),
    "energy_terms": lambda b, x: energy_terms(np.arange(162), x, b.phi, b),
    "theorem_oracle": lambda b, x: theorem_oracle(x, b.phi, b, b),
    "build_structure_report": lambda b, x: build_structure_report(np.eye(20), b, b, x, b.phi),
}


@pytest.mark.parametrize("ndim", [1, 3])
@pytest.mark.parametrize("name", sorted(STACK_TAKERS))
def test_a_stack_that_is_not_2d_is_length_mismatch(ico162_basis, name, ndim):
    """One rule for a stack, spectral._matrix: float64 (n, d), else
    LengthMismatch, never a numpy ValueError or IndexError. concat_features
    checks every part after the first against its row count."""
    basis, f = ico162_basis
    x = f if ndim == 1 else basis.phi[:, :, None]
    with pytest.raises(LengthMismatch, match=r"expected \((n|162), d\) array"):
        STACK_TAKERS[name](basis, x)


# Every public function that takes two arrays which must agree in width or
# row count, called with a pair that does not (k = 20, n = 162); the
# expected shape the check names.
MISMATCHED = {
    "solve_fmap": (lambda b: solve_fmap(b.phi.T, b.phi.T[:, :5], b.lam, b.lam),
                   "(n, 162)"),
    "solve_fmap_eigenvalues": (lambda b: solve_fmap(b.phi.T, b.phi.T, b.lam[:5], b.lam),
                               "(20,)"),
    "nearest_rows": (lambda b: nearest_rows(b.phi, b.phi[:, :5]), "(n, 20)"),
    "soft_map": (lambda b: soft_map(b.phi, b.phi[:, :5]), "(n, 20)"),
    "concat_features": (lambda b: concat_features([b.phi, b.phi[:5]]), "(162, d)"),
    "energy_terms_rows": (lambda b: energy_terms(np.arange(5), b.phi, b.phi, b), "(162, d)"),
    "energy_terms_width": (lambda b: energy_terms(np.arange(162), b.phi, b.phi[:, :1], b),
                           "(n, 20)"),
    "measure_basis_aligning": (
        lambda b: measure_basis_aligning(np.eye(20), b, b, adjoint=np.arange(5)), "(162, d)"),
    "loss_properness": (lambda b: loss_properness(np.eye(20), np.eye(20)[:5]), "(20, 20)"),
    "rank_report": (lambda b: rank_report(b.phi, np.ones(3)), "(n, 20)"),
    "rank_report_width": (lambda b: rank_report(b.phi, np.ones((20, 3))), "(n, 20)"),
    "theorem_oracle": (lambda b: theorem_oracle(b.phi, b.phi[:, :5], b, b), "(n, 20)"),
    "normalize_columns": (lambda b: normalize_columns(b.phi, b.mass[:5]), "(162,)"),
    "reconstruct": (lambda b: b.reconstruct(np.ones(5)), "(20,) or (20, d)"),
    "reconstruct_stack": (lambda b: b.reconstruct(np.ones((5, 3))), "(20,) or (20, d)"),
}


@pytest.mark.parametrize("name", sorted(MISMATCHED))
def test_arrays_that_do_not_agree_are_length_mismatch(ico162_basis, name):
    """The second array is checked against the first's size, by
    spectral._matrix or spectral._rows: LengthMismatch naming the expected
    shape, never a numpy ValueError or LinAlgError, nor a silent broadcast."""
    basis, _ = ico162_basis
    call, expected = MISMATCHED[name]
    with pytest.raises(LengthMismatch, match=re.escape(f"expected {expected}")):
        call(basis)


# Every range-checked parameter, given a value that is not finite: NaN
# compares False to every bound, so each check is written to fail on it.
PARAMETERS = {
    "tau_soft_map": lambda b, v: soft_map(b.phi, b.phi, tau=v),
    "tau_refine_proper": lambda b, v: refine_proper(np.eye(20), b, b, tau=v),
    "mu": lambda b, v: solve_fmap(b.phi.T, b.phi.T, b.lam, b.lam, mu=v),
    "t_diffuse": lambda b, v: diffuse(b, b.phi, v),
    "t_descriptor_landmarks": lambda b, v: descriptor_landmarks(b, [0, 5], v),
    "times": lambda b, v: descriptor_hks(b, [1.0, v]),
    "sigma": lambda b, v: descriptor_wks(b, [0.0], v),
    "energies": lambda b, v: descriptor_wks(b, [0.0, v], 1.0),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_a_parameter_that_is_not_finite_is_value_error(ico162_basis, name, value):
    basis, _ = ico162_basis
    with pytest.raises(ValueError, match="finite"):
        PARAMETERS[name](basis, value)


@pytest.fixture(scope="module")
def bumpy2562():
    """Laplacian of bumpy_sphere(4) and its dense basis at k = 321.

    321 is the smallest k with SPARSE_K_RATIO * k >= 2562, so the dense
    basis truncates to every sparse k used below.
    """
    lap = build_laplacian(synth.bumpy_sphere(4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SPARSE_MIN_VERTICES", lap.n)
        dense = eigenbasis(lap, 321)
    return lap, dense


class _SparseCalled(Exception):
    pass


def _refuse_eigsh(*args, **kwargs):
    raise _SparseCalled


class TestSparseBranch:
    @pytest.mark.parametrize("k", [30, 128])
    def test_matches_dense(self, bumpy2562, k):
        lap, dense = bumpy2562
        ref = dense.truncate(k)
        basis = eigenbasis(lap, k)
        assert np.abs(basis.lam - ref.lam).max() < 1e-12 * ref.lam[-1]
        assert np.abs(basis.phi - ref.phi).max() < 1e-9
        assert np.all(basis.lam >= 0)
        gram = basis.phi.T @ (lap.mass[:, None] * basis.phi)
        assert np.abs(gram - np.eye(k)).max() < 1e-8

    @pytest.mark.parametrize("k", [30, 128])
    def test_deterministic(self, bumpy2562, k):
        lap, _ = bumpy2562
        b1, b2 = eigenbasis(lap, k), eigenbasis(lap, k)
        assert np.array_equal(b1.lam, b2.lam)
        assert np.array_equal(b1.phi, b2.phi)

    @pytest.mark.parametrize("k", [30, 128])
    @pytest.mark.parametrize("scale", [1e-3, 1e3, 1e5])
    def test_scale_equivariant(self, bumpy2562, k, scale):
        # lambda scales as 1/scale^2 under a uniform scaling of the mesh
        lap, _ = bumpy2562
        mesh = synth.bumpy_sphere(4)
        scaled = build_laplacian(TriMesh(mesh.vertices * scale, mesh.triangles))
        lam = eigenbasis(lap, k).lam
        lam_s = eigenbasis(scaled, k).lam * scale**2
        assert abs(lam_s[0]) < 1e-10 * lam[-1]
        assert np.abs(lam_s[1:] / lam[1:] - 1.0).max() < 1e-10

    def test_dispatch_boundary(self, bumpy2562, monkeypatch):
        lap, dense = bumpy2562
        at_boundary = eigenbasis(lap, 321)
        assert np.array_equal(at_boundary.lam, dense.lam)
        assert np.array_equal(at_boundary.phi, dense.phi)
        monkeypatch.setattr(spectral, "eigsh", _refuse_eigsh)
        with pytest.raises(_SparseCalled):
            eigenbasis(lap, 320)

    def test_vertex_floor(self, monkeypatch):
        monkeypatch.setattr(spectral, "eigsh", _refuse_eigsh)
        n = SPARSE_MIN_VERTICES
        eigenbasis(LaplacianPair(sparse.eye(n, format="csr"), np.ones(n)), 10)
        lap = LaplacianPair(sparse.eye(n + 1, format="csr"), np.ones(n + 1))
        with pytest.raises(_SparseCalled):
            eigenbasis(lap, 10)

    def test_not_psd_rejected(self):
        n = 1200
        lap = LaplacianPair(-sparse.eye(n, format="csr"), np.ones(n))
        with pytest.raises(SolverFailure, match="positive semidefinite"):
            eigenbasis(lap, 10)

    @pytest.mark.parametrize("exc", [
        ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0))),
        ArpackError(-9999),
        RuntimeError("Factor is exactly singular"),
        ValueError("bad input"),
    ])
    def test_solver_errors_become_solver_failure(self, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(spectral, "eigsh", fail)
        n = 1200
        lap = LaplacianPair(sparse.eye(n, format="csr"), np.ones(n))
        with pytest.raises(SolverFailure, match="sparse eigensolver failed"):
            eigenbasis(lap, 10)


@pytest.fixture(scope="module")
def ico162_basis(ico162):
    lap = build_laplacian(ico162)
    basis = eigenbasis(lap, 20)
    f = np.random.default_rng(9).standard_normal(162)
    return basis, f
