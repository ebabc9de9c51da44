"""Functional-map estimation, pointwise conversion, and the losses.

The regularized solver is checked against an augmented-least-squares oracle
(QR route instead of the normal equations), nearest-row conversion against a
brute-force double loop, the soft map against an unstabilized softmax, and
the analytic gradients against central finite differences.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import cdist

import oracles as orc
from fmapkit import _blas, cli, fmap, synth
from fmapkit._blas import single_threaded
from fmapkit.cli import DiagnoseConfig
from fmapkit.diagnostics import build_structure_report, measure_basis_aligning, measure_properness
from fmapkit.errors import IndexOutOfRange, LengthMismatch, RankDeficient
from fmapkit.fmap import (
    convert_adjoint,
    convert_feature_nn,
    grad_unsupervised,
    loss_properness,
    loss_unsupervised,
    nearest_rows,
    properness_project,
    soft_map,
    solve_fmap,
)
from fmapkit.refine import refine_proper
from fmapkit.spectral import build_laplacian, eigenbasis


class TestSolve:
    def test_matches_augmented_lstsq(self):
        rng = np.random.default_rng(0)
        A1 = rng.standard_normal((6, 10))
        A2 = rng.standard_normal((7, 10))
        lam1 = np.sort(rng.uniform(0, 5, 6))
        lam2 = np.sort(rng.uniform(0, 5, 7))
        C = solve_fmap(A1, A2, lam1, lam2, mu=0.5)
        ref = orc.solve_fmap_ref(A1, A2, lam1, lam2, mu=0.5)
        assert C == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_mu_zero_full_rank(self):
        rng = np.random.default_rng(1)
        A1 = rng.standard_normal((5, 12))
        A2 = rng.standard_normal((5, 12))
        C = solve_fmap(A1, A2, mu=0.0)
        ref = orc.solve_fmap_ref(A1, A2, mu=0.0)
        assert C == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_mu_zero_consistent_system_solved_exactly(self):
        rng = np.random.default_rng(1)
        A1 = rng.standard_normal((5, 12))
        C_true = rng.standard_normal((6, 5))
        A2 = C_true @ A1
        C = solve_fmap(A1, A2, mu=0.0)
        assert C == pytest.approx(C_true, rel=1e-9, abs=1e-11)
        assert C @ A1 == pytest.approx(A2, abs=1e-9)

    def test_mu_zero_rank_deficient_raises(self):
        rng = np.random.default_rng(2)
        A1 = rng.standard_normal((4, 2))  # rank 2 < k1 = 4
        A2 = rng.standard_normal((4, 2))
        with pytest.raises(RankDeficient):
            solve_fmap(A1, A2, mu=0.0)

    def test_zero_system_is_rank_deficient_at_positive_mu(self):
        with pytest.raises(RankDeficient, match="singular"):
            solve_fmap(np.zeros((3, 4)), np.zeros((3, 4)), np.zeros(3), np.zeros(3), mu=1e-3)

    @pytest.mark.parametrize("mu", [0.0, 1e-3])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("stack", [0, 1])
    def test_non_finite_stack_is_rank_deficient(self, stack, value, mu):
        """Checked before either branch: at mu = 0 a NaN in A1 escaped as
        LinAlgError, and elsewhere the map came back NaN."""
        rng = np.random.default_rng(2)
        A = [rng.standard_normal((4, 12)), rng.standard_normal((4, 12))]
        A[stack][1, 5] = value
        with pytest.raises(RankDeficient, match="must be finite"):
            solve_fmap(*A, np.arange(4.0), np.arange(4.0), mu=mu)

    def test_square_identity_recovery(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 6))
        lam = np.arange(6.0)
        C = solve_fmap(A, A, lam, lam, mu=1e-3)
        assert C == pytest.approx(np.eye(6), abs=1e-10)

    def test_exact_recovery_on_permuted_pair(self, pair, complete_features):
        F1, F2 = complete_features
        A1 = pair.basis1.project(F1)
        A2 = pair.basis2.project(F2)
        C = solve_fmap(A1, A2, pair.basis1.lam, pair.basis2.lam, mu=1e-3)
        assert np.linalg.norm(C - pair.C_gt) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(LengthMismatch):
            solve_fmap(np.zeros((3, 4)), np.zeros((3, 5)))

    def test_mu_needs_eigenvalues(self):
        with pytest.raises(ValueError):
            solve_fmap(np.zeros((3, 4)), np.zeros((3, 4)), mu=0.1)

    def test_right_mixing_invariance_square(self):
        # with d == k the solution is A2 A1^{-1}: invariant to invertible
        # right-mixing of the descriptor columns
        rng = np.random.default_rng(4)
        A1 = rng.standard_normal((5, 5))
        A2 = rng.standard_normal((5, 5))
        X = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        C = solve_fmap(A1, A2, mu=0.0)
        CX = solve_fmap(A1 @ X, A2 @ X, mu=0.0)
        assert CX == pytest.approx(C, rel=1e-8, abs=1e-10)


class TestNearestRows:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        points = rng.standard_normal((200, 5))
        queries = rng.standard_normal((300, 5))
        assert np.array_equal(nearest_rows(queries, points),
                              orc.brute_nn(queries, points))

    def test_no_points_raises(self):
        with pytest.raises(ValueError, match="empty sequence"):
            nearest_rows(np.ones((2, 3)), np.ones((0, 3)))

    def test_tie_takes_first_index(self):
        points = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        queries = np.array([[1.0, 0.0]])
        assert nearest_rows(queries, points)[0] == 0

    def test_blockwise_consistency(self):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((50, 3))
        queries = rng.standard_normal((5000, 3))
        # many row blocks and a partial last one
        assert len(queries) > _blas.ROW_BLOCK and len(queries) % _blas.ROW_BLOCK
        assert np.array_equal(nearest_rows(queries, points),
                              orc.brute_nn(queries, points))

    @pytest.mark.parametrize("row_block", [1, 7, None])
    def test_ties_on_both_sides_of_a_block_boundary(self, monkeypatch, row_block):
        # duplicated points (columns 0 and 4 of the distance table) and
        # mirrored points (columns 1 and 2) tie exactly for the rows just
        # before and just after each block boundary: the lowest index wins
        if row_block is not None:
            monkeypatch.setattr(_blas, "ROW_BLOCK", row_block)
        block = _blas.ROW_BLOCK
        points = np.array([[2.0, 0.0], [0.0, 1.5], [0.0, -1.5], [3.0, 3.0],
                           [2.0, 0.0]])
        queries = np.zeros((3 * block + 2, 2))
        queries[::2] = [2.0, 0.0]
        ties = np.where(np.arange(len(queries)) % 2 == 0, 0, 1)
        for edge in (block - 1, block, 2 * block - 1, 2 * block):
            assert ties[edge] == orc.brute_nn(queries[edge:edge + 1], points)[0]
        assert np.array_equal(nearest_rows(queries, points), ties)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
        min_size=d, max_size=d), min_size=1, max_size=6)),
        st.lists(st.integers(0, 5), min_size=1, max_size=40),
        st.lists(st.integers(0, 5), min_size=1, max_size=40),
        st.sampled_from([1.0, 1e-158, 1e-170, 1e160, 1e200]),
        st.lists(st.tuples(st.booleans(), st.integers(0, 39), st.integers(0, 3),
                           st.sampled_from([np.nan, np.inf, -np.inf])), max_size=2),
        st.sampled_from([1, 5, None]))
    # an exact tie between subnormal squared distances
    @example([[0.5], [-0.3], [0.1]], [2], [1, 1, 0], 1e-158, [], None)
    def test_equals_cdist_argmin(self, pool, query_picks, point_picks, scale, specials,
                                 row_block):
        # rows drawn from a small pool of small integers or floats, so exact
        # ties and duplicates are common; scaled so that squares may
        # underflow or overflow; a few entries set to NaN or +-inf (argmin
        # takes a row's first NaN distance)
        queries = scale * np.array([pool[i % len(pool)] for i in query_picks])
        points = scale * np.array([pool[i % len(pool)] for i in point_picks])
        for in_queries, row, col, value in specials:
            rows = queries if in_queries else points
            rows[row % len(rows), col % rows.shape[1]] = value
        with pytest.MonkeyPatch.context() as mp:
            if row_block is not None:
                mp.setattr(_blas, "ROW_BLOCK", row_block)
            got = nearest_rows(queries, points)
        assert np.array_equal(got, np.argmin(cdist(queries, points, "sqeuclidean"), axis=1))

    @pytest.mark.parametrize("level", [2, 3])
    @pytest.mark.parametrize("desc", ["xyz", "stack"])
    def test_equals_cdist_argmin_on_icosphere_stacks(self, level, desc):
        # icosphere rows have many neighbours at exactly equal distances; the
        # rounded copy adds ties between whole groups of rows
        _, features = cli._prepare_side(synth.icosphere(level),
                                        DiagnoseConfig(src="a", dst="b", desc=desc))
        for points in (features[::-1], np.round(features, 1)):
            assert np.array_equal(nearest_rows(features, points),
                                  np.argmin(cdist(features, points, "sqeuclidean"), axis=1))


class TestPointMap:
    """Hard maps are (n2,) integer arrays, soft maps (n2, n1) arrays; the
    private pull-back reads the kind from the array and checks it."""

    def test_hard_apply(self):
        vals = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(fmap._pull_back(np.array([2, 0, 3]), vals), vals[[2, 0, 3]])
        assert np.array_equal(fmap._pull_back(np.array([2, 0, 3], dtype=np.int32), vals),
                              vals[[2, 0, 3]])

    def test_soft_apply(self):
        m = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        vals = np.array([[0.0], [2.0], [4.0]])
        assert fmap._pull_back(m, vals) == pytest.approx(np.array([[1.0], [4.0]]))

    def test_hard_validation(self):
        vals = np.zeros((3, 2))
        with pytest.raises(IndexOutOfRange):
            fmap._pull_back(np.array([0, 3]), vals)
        # numpy would wrap -1 to the last row
        with pytest.raises(IndexOutOfRange):
            fmap._pull_back(np.array([-1]), vals)

    def test_soft_validation(self):
        with pytest.raises(LengthMismatch):
            fmap._pull_back(np.array([[0.7, 0.7]]), np.zeros(2))
        with pytest.raises(LengthMismatch):
            fmap._pull_back(np.array([[-0.5, 1.5]]), np.zeros(2))
        with pytest.raises(LengthMismatch):
            fmap._pull_back(np.ones((2, 2)) / 2, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_soft_validation_rejects_non_finite_rows(self, bad):
        # every comparison with NaN is False, so only the row sums see it
        vals = np.zeros((4, 2))
        with pytest.raises(LengthMismatch, match="finite"):
            fmap._pull_back(np.full((3, 4), bad), vals)
        m = np.full((3, 4), 0.25)
        m[1, 2] = bad
        with pytest.raises(LengthMismatch, match="finite"):
            fmap._pull_back(m, vals)

    def test_unknown_kind(self):
        # neither (n2,) integers nor (n2, n1): float, bool, 0-d and 3-d arrays
        for pi in (np.array([0.0, 1.0]), np.array([True, False]), np.array(0),
                   np.zeros((2, 2, 2))):
            with pytest.raises(LengthMismatch):
                fmap._pull_back(pi, np.zeros((2, 2)))

    def test_apply_size_check(self):
        # the source size is the row count of the values pulled back
        with pytest.raises(IndexOutOfRange):
            fmap._pull_back(np.array([0, 4]), np.zeros((4, 2)))
        with pytest.raises(LengthMismatch):
            fmap._pull_back(np.full((1, 4), 0.25), np.zeros((5, 2)))


class TestConversions:
    def test_adjoint_recovers_permutation(self, pair):
        pm = convert_adjoint(pair.C_gt, pair.basis1.phi, pair.basis2.phi)
        assert pm.dtype == np.int64 and pm.shape == (642,)
        assert np.array_equal(pm, pair.perm)

    def test_adjoint_matches_brute_force(self, pair):
        C = pair.C_gt[:10, :10]
        phi1 = pair.basis1.phi[:, :10]
        phi2 = pair.basis2.phi[:, :10]
        pm = convert_adjoint(C, phi1, phi2)
        assert np.array_equal(pm, orc.brute_nn(phi2 @ C, phi1))

    def test_feature_nn_recovers_permutation(self, pair, complete_features):
        F1, F2 = complete_features
        pm = convert_feature_nn(F1, F2)
        assert np.array_equal(pm, pair.perm)

    def test_feature_nn_matches_brute_force(self):
        rng = np.random.default_rng(7)
        F1 = rng.standard_normal((150, 6))
        F2 = rng.standard_normal((80, 6))
        pm = convert_feature_nn(F1, F2)
        assert np.array_equal(pm, orc.brute_nn(F2, F1))
        assert pm.dtype == np.int64 and pm.shape == (80,)


class TestSoftMap:
    def test_matches_unstabilized_softmax(self):
        rng = np.random.default_rng(8)
        G1 = rng.standard_normal((40, 4))
        G2 = rng.standard_normal((30, 4))
        pm = soft_map(G1, G2, tau=0.5)
        ref = orc.softmax_map_ref(G1, G2, 0.5)
        assert pm.dtype == np.float64 and pm.shape == (30, 40)
        assert pm == pytest.approx(ref, rel=1e-12)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(9)
        pm = soft_map(rng.standard_normal((25, 3)), rng.standard_normal((35, 3)))
        assert pm.sum(axis=1) == pytest.approx(np.ones(35), abs=1e-12)
        assert np.all(pm >= 0)

    def test_huge_similarities_stay_finite(self):
        G1 = 1e4 * np.eye(3)
        G2 = 1e4 * np.eye(3)[[2, 0]]
        pm = soft_map(G1, G2, tau=0.07)
        assert np.isfinite(pm).all()
        assert np.array_equal(pm.argmax(axis=1), [2, 0])

    @pytest.mark.parametrize("tau", [1e-3, 0.07, 1.0])
    def test_equals_out_of_place_expression(self, pair, tau):
        G1 = pair.basis1.phi
        G2 = pair.basis2.phi @ (pair.C_gt + 0.1 * np.eye(30))
        pm = soft_map(G1, G2, tau=tau)
        with single_threaded():  # the same GEMM at the same thread count
            s = (G2 @ G1.T) / tau
        p = np.exp(s - s.max(1, keepdims=True))
        assert np.array_equal(pm, p / p.sum(1, keepdims=True))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_row_raises(self, bad):
        rng = np.random.default_rng(11)
        G1 = rng.standard_normal((6, 3))
        G2 = rng.standard_normal((4, 3))
        G2[2, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(LengthMismatch, match="finite"):
            soft_map(G1, G2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["G1", "G2"])
    def test_soft_map_and_block_pull_back_reject_the_same_descriptors(self, side, bad):
        rng = np.random.default_rng(11)
        G1, G2 = rng.standard_normal((6, 3)), rng.standard_normal((4, 3))
        values = rng.standard_normal((6, 2))
        (G1 if side == "G1" else G2)[2, 1] = bad
        messages = []
        for call in (lambda: soft_map(G1, G2), lambda: fmap._soft_apply(G1, G2, values)):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(LengthMismatch, match="finite") as info:
                call()
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_soft_map_and_block_pull_back_accept_the_same_minus_inf(self):
        # -inf in G1[2] against positive G2 makes column 2 all -inf: weight 0,
        # every row still finite
        rng = np.random.default_rng(11)
        G1, G2 = rng.standard_normal((6, 3)), np.abs(rng.standard_normal((4, 3)))
        values = rng.standard_normal((6, 2))
        G1[2, 1] = -np.inf
        pm = soft_map(G1, G2)
        assert np.all(pm[:, 2] == 0.0) and np.isfinite(pm).all()
        assert fmap._soft_apply(G1, G2, values) == pytest.approx(pm @ values, rel=1e-14)

    def test_block_apply_validation(self):
        with pytest.raises(ValueError):
            fmap._soft_apply(np.ones((2, 2)), np.ones((2, 2)), np.ones(2), tau=0.0)
        with pytest.raises(LengthMismatch):
            fmap._soft_apply(np.ones((2, 3)), np.ones((2, 2)), np.ones(2))
        with pytest.raises(LengthMismatch):
            fmap._soft_apply(np.ones((2, 2)), np.ones((2, 2)), np.ones(3))

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            soft_map(np.ones((2, 2)), np.ones((2, 2)), tau=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(LengthMismatch):
            soft_map(np.ones((2, 3)), np.ones((2, 2)))

    @settings(deadline=None, max_examples=20)
    @given(st.floats(1e-3, 10.0))
    def test_argmax_is_tau_invariant(self, tau):
        rng = np.random.default_rng(10)
        G1 = rng.standard_normal((30, 4))
        G2 = rng.standard_normal((20, 4))
        pm = soft_map(G1, G2, tau=tau)
        assert np.array_equal(pm.argmax(axis=1), (G2 @ G1.T).argmax(axis=1))


class TestPropernessProjection:
    def test_hard_map_formula(self, pair):
        pm = np.random.default_rng(11).integers(0, 642, 642)
        C = properness_project(pm, pair.basis1, pair.basis2)
        with single_threaded():   # properness_project's thread count
            manual = pair.basis2.phi.T @ (pair.lap2.mass[:, None]
                                          * pair.basis1.phi[pm])
        assert np.array_equal(C, manual)

    def test_ground_truth_is_fixed_point(self, pair):
        C = properness_project(pair.perm, pair.basis1, pair.basis2)
        assert C == pytest.approx(pair.C_gt, abs=1e-14)

    def test_soft_limit_equals_hard(self, pair):
        pm_hard = convert_adjoint(pair.C_gt, pair.basis1.phi, pair.basis2.phi)
        C_hard = properness_project(pm_hard, pair.basis1, pair.basis2)
        pm_soft = soft_map(pair.basis1.phi, pair.basis2.phi @ pair.C_gt, tau=1e-4)
        C_soft = properness_project(pm_soft, pair.basis1, pair.basis2)
        assert C_soft == pytest.approx(C_hard, abs=1e-12)

    def test_size_mismatch(self, pair):
        pm = np.zeros(10, dtype=int)
        with pytest.raises(LengthMismatch):
            properness_project(pm, pair.basis1, pair.basis2)
        with pytest.raises(LengthMismatch):
            properness_project(np.full((642, 10), 0.1), pair.basis1, pair.basis2)

    def test_negative_index_raises(self, pair):
        pi = pair.perm.copy()
        pi[7] = -1   # numpy would wrap it to the last row
        with pytest.raises(IndexOutOfRange):
            properness_project(pi, pair.basis1, pair.basis2)

    @pytest.mark.parametrize("bad", ["nan", "negative", "sum"])
    def test_bad_soft_row_raises(self, pair, bad):
        pm = soft_map(pair.basis1.phi, pair.basis2.phi, tau=1.0)
        row = pm[_blas.ROW_BLOCK + 3]   # in the second row block
        if bad == "nan":
            row[5] = np.nan
        elif bad == "negative":   # the row still sums to 1
            row[6] += 2 * row[5]
            row[5] = -row[5]
        else:
            row[5] += 1e-6
        with pytest.raises(LengthMismatch, match="finite"):
            properness_project(pm, pair.basis1, pair.basis2)


class TestLosses:
    def test_properness_zero_at_fixed_point(self, pair):
        assert loss_properness(pair.C_gt, pair.C_gt) == 0.0

    def test_properness_is_squared_frobenius(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.zeros((2, 2))
        assert loss_properness(a, b) == pytest.approx(30.0)
        with pytest.raises(LengthMismatch):
            loss_properness(a, np.zeros((2, 3)))

    def test_properness_matches_supervised_form(self):
        rng = np.random.default_rng(12)
        a, b = rng.standard_normal((2, 5, 5))
        assert loss_properness(a, b) == pytest.approx(
            float(np.linalg.norm(a - b) ** 2), rel=1e-12
        )

    def test_unsupervised_zero_at_orthogonal_inverse_pair(self):
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert loss_unsupervised(q, q.T) == pytest.approx(0.0, abs=1e-25)

    def test_unsupervised_positive_elsewhere(self):
        assert loss_unsupervised(2 * np.eye(3), np.eye(3)) > 0

    @pytest.mark.parametrize("loss", [loss_unsupervised, grad_unsupervised])
    def test_a_map_that_is_not_2d_is_named_as_such(self, loss):
        with pytest.raises(LengthMismatch) as info:
            loss(np.zeros((1, 3, 3)), np.eye(3))
        assert str(info.value) == "expected (n, d) array, got shape (1, 3, 3)"

    def test_gradient_zero_at_minimum(self):
        g12, g21 = grad_unsupervised(np.eye(4), np.eye(4))
        assert np.abs(g12).max() == 0.0
        assert np.abs(g21).max() == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        C12 = rng.standard_normal((5, 5))
        C21 = rng.standard_normal((5, 5))
        g12, g21 = grad_unsupervised(C12, C21)
        f12 = orc.fd_gradient(lambda x: loss_unsupervised(x, C21), C12)
        f21 = orc.fd_gradient(lambda x: loss_unsupervised(C12, x), C21)
        assert g12 == pytest.approx(f12, rel=1e-6, abs=1e-7)
        assert g21 == pytest.approx(f21, rel=1e-6, abs=1e-7)


# Every public function that takes a functional map C of shape (k2, k1),
# called with `C` in its place and bases with k1 = 20 != k2 = 12 on ico162.
C_TAKERS = {
    "convert_adjoint": lambda b1, b2, C: convert_adjoint(C, b1.phi, b2.phi),
    "measure_properness": lambda b1, b2, C: measure_properness(C, b1, b2),
    "measure_basis_aligning": lambda b1, b2, C: measure_basis_aligning(C, b1, b2),
    "build_structure_report": lambda b1, b2, C: build_structure_report(
        C, b1, b2, b1.phi, b1.phi),
    "refine_proper_adjoint": lambda b1, b2, C: refine_proper(C, b1, b2),
    "refine_proper_feature": lambda b1, b2, C: refine_proper(
        C, b1, b2, mode="feature", F1=b1.phi[:, :12], F2=b2.phi),
    "loss_unsupervised": lambda b1, b2, C: loss_unsupervised(C, np.zeros((20, 12))),
    "grad_unsupervised": lambda b1, b2, C: grad_unsupervised(C, np.zeros((20, 12))),
    "loss_properness": lambda b1, b2, C: loss_properness(np.zeros((12, 20)), C),
}


@pytest.fixture(scope="module")
def ico162_bases(ico162):
    basis1 = eigenbasis(build_laplacian(ico162), 20)
    return basis1, basis1.truncate(12)


@pytest.mark.parametrize("shape", [(20, 12), (1, 12, 20)])
@pytest.mark.parametrize("name", sorted(C_TAKERS))
def test_a_functional_map_of_another_shape_is_length_mismatch(ico162_bases, name, shape):
    """One rule for C, errors._matrix(C, k2, k1): float64 (k2, k1), else
    LengthMismatch, never a numpy ValueError. The losses take the first
    map as any 2-D array, so a 3-D one is named as (n, d)."""
    basis1, basis2 = ico162_bases
    expected = r"\((12, 20|n, d)\)" if len(shape) == 3 else r"\(12, 20\)"
    with pytest.raises(LengthMismatch,
                       match=rf"expected {expected} array, got shape {re.escape(str(shape))}"):
        C_TAKERS[name](basis1, basis2, np.zeros(shape))
